package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// stack is one profile sample: its frames, innermost first (inlined
// frames expanded), and the CPU time it stands for.
type stack struct {
	funcs []string
	cpu   time.Duration
}

// internalPrefix marks the program's own packages; a frame's layer is
// the package element that follows it.
const internalPrefix = "tagwatch/internal/"

// gcRoots are the runtime's background collector goroutines. Collection
// work done on an allocating goroutine (assists) stays with that
// goroutine's layer.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute charges each sample to its innermost frame in a named layer
// package, so runtime and standard-library work lands on the internal
// caller that asked for it. Samples with no such frame go to gc when a
// background collector is running and to other otherwise (the rig, the
// scheduler, the HTTP server's plumbing).
func attribute(stacks []stack) map[string]time.Duration {
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	out := map[string]time.Duration{}
	for _, s := range stacks {
		out[layerOf(s.funcs, named)] += s.cpu
	}
	return out
}

func layerOf(funcs []string, named map[string]bool) string {
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if named[pkg] && pkg != "gc" && pkg != "other" {
			return pkg
		}
	}
	for _, f := range funcs {
		for _, root := range gcRoots {
			if f == root {
				return "gc"
			}
		}
	}
	return "other"
}

// parseProfile decodes the gzipped protobuf a runtime/pprof CPU profile
// is written as, keeping only what attribution needs: each sample's
// stack of function names and its CPU time.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		samples   []sample
		types     [][2]int64 // sample_type (type, unit) string indices
		funcName  = map[uint64]int64{}
		locFuncs  = map[uint64][]uint64{}
		parseErrs error
	)
	err = eachField(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			parseErrs = errors.Join(parseErrs, eachField(b, func(f int, v uint64, _ []byte) {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
			}))
			types = append(types, vt)
		case 2: // sample
			var s sample
			parseErrs = errors.Join(parseErrs, eachField(b, func(f int, v uint64, pb []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, pb)
				case 2:
					for _, u := range appendVarints(nil, v, pb) {
						s.values = append(s.values, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			parseErrs = errors.Join(parseErrs, eachField(b, func(f int, v uint64, lb []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					parseErrs = errors.Join(parseErrs, eachField(lb, func(f int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			parseErrs = errors.Join(parseErrs, eachField(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, parseErrs); err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := len(types) - 1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			cpuIdx = i
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("sample without a cpu value")
		}
		st := stack{cpu: time.Duration(s.values[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				st.funcs = append(st.funcs, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(field, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data set) or
// not (single value v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
