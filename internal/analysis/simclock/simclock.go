// Package simclock enforces the repo's seed-replay invariant: the
// simulator packages must be bit-for-bit reproducible from a seed, so
// they may not consult the wall clock or the process-global math/rand
// stream. Time must flow from the injected virtual clock (the reader's
// Now()/device-virtual timestamps) and randomness from an explicitly
// seeded *rand.Rand threaded through the call tree.
//
// The check is path-scoped: only the deterministic packages listed in
// RestrictedPrefixes are inspected, so daemons, the fleet layer, and
// the CLIs remain free to use real time. Inside a restricted package a
// genuine need for wall time (e.g. the chaos proxy pacing a real
// socket) is annotated with
//
//	//tagwatch:allow-wallclock <why this cannot use the virtual clock>
package simclock

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"tagwatch/internal/analysis"
)

// RestrictedPrefixes are the import paths (and their subpackages) that
// must stay deterministic. Everything a scenario, an experiment, or a
// chaos replay depends on lives here.
var RestrictedPrefixes = []string{
	"tagwatch/internal/aloha",
	"tagwatch/internal/chaos",
	"tagwatch/internal/gen2",
	"tagwatch/internal/motion",
	"tagwatch/internal/reader",
	"tagwatch/internal/replay",
	"tagwatch/internal/replication",
	"tagwatch/internal/rf",
	"tagwatch/internal/scenario",
	"tagwatch/internal/scene",
	"tagwatch/internal/schedule",
}

// wallclockFuncs are the package time functions that observe or wait on
// real time. Pure constructors/arithmetic (time.Duration, time.Unix,
// Time.Add, ...) stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

// globalRandOK are the math/rand package-level functions that do NOT
// touch the global source: they build the seeded streams the simulator
// is supposed to use.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Analyzer rejects wall-clock and global-RNG use in deterministic
// packages.
var Analyzer = &analysis.Analyzer{
	Name:      "simclock",
	Directive: "allow-wallclock",
	Doc: `forbid wall-clock time and global math/rand in the deterministic simulator packages

The Gen2/RF/chaos simulators must replay bit-for-bit from a seed; any
time.Now/time.Since/time.Sleep or package-level math/rand call breaks
replayability silently. Use the injected virtual clock and a seeded
*rand.Rand instead, or annotate with //tagwatch:allow-wallclock and a
justification.`,
	Run: run,
}

func restricted(path string) bool {
	for _, p := range RestrictedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !restricted(pass.Pkg.Path()) {
		return nil
	}
	// Walking TypesInfo.Uses (rather than only call expressions) also
	// catches taking a forbidden function as a value, e.g. `clock :=
	// time.Now` smuggled into a struct field.
	type hit struct {
		id  *ast.Ident
		msg string
	}
	var hits []hit
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Intn) are the sanctioned path
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallclockFuncs[fn.Name()] {
				hits = append(hits, hit{id, "time." + fn.Name() +
					" breaks seed replay in a deterministic package; use the injected virtual clock"})
			}
		case "math/rand", "math/rand/v2":
			if !globalRandOK[fn.Name()] {
				hits = append(hits, hit{id, "global " + fn.Pkg().Path() + "." + fn.Name() +
					" breaks seed replay in a deterministic package; use the injected seeded *rand.Rand"})
			}
		}
	}
	// Map iteration order is random; report in source order so output is
	// stable for golden tests and CI diffs.
	sort.Slice(hits, func(i, j int) bool { return hits[i].id.Pos() < hits[j].id.Pos() })
	for _, h := range hits {
		pass.Reportf(h.id.Pos(), "%s", h.msg)
	}
	return nil
}
