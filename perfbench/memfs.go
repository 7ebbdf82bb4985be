package main

import (
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tagwatch/internal/statestore"
)

// memFS is an in-memory statestore.FS. fleet-wire's registry runs the
// real durable store (snapshots, journal, fsync barriers) on it, so the
// shared disk's fsync latency stays out of the measurement and the run
// writes nothing outside its checkout. It counts the bytes written.
type memFS struct {
	mu      sync.Mutex
	files   map[string][]byte
	written atomic.Int64
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

var _ statestore.FS = (*memFS)(nil)

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	prefix := path.Clean(dir) + "/"
	for name := range m.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

func (m *memFS) Create(name string) (statestore.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path.Clean(name)] = nil
	return &memFile{fs: m, name: path.Clean(name)}, nil
}

func (m *memFS) OpenAppend(name string) (statestore.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = path.Clean(name)
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path.Clean(oldname)]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, path.Clean(oldname))
	m.files[path.Clean(newname)] = b
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path.Clean(name)]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, path.Clean(name))
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path.Clean(name)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if int64(len(b)) > size {
		m.files[path.Clean(name)] = b[:size]
	}
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.mu.Unlock()
	f.fs.written.Add(int64(len(p)))
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
