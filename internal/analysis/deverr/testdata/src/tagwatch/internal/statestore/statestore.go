// Fixture: minimal stand-in for the real statestore package, matched by
// the analyzer purely on import path + type name + signature.
package statestore

type Engine interface {
	Image() ([]byte, error)
}

type Store struct{}

func (s *Store) Append(data []byte) error         { return nil }
func (s *Store) AppendBatch(recs [][]byte) error  { return nil }
func (s *Store) WriteSnapshot(state []byte) error { return nil }
func (s *Store) Close() error                     { return nil }
func (s *Store) Restore(e Engine) error           { return nil }
func (s *Store) Journal(e Engine) error           { return nil }
func (s *Store) Snapshot(e Engine) error          { return nil }

type Cursor struct{}

type JournalReader struct{}

func (r *JournalReader) Poll() ([][]byte, Cursor, error) { return nil, Cursor{}, nil }
func (r *JournalReader) Close()                          {}
