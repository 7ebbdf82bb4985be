// Package statestore is a crash-safe durable store for learned engine
// state: periodic atomic snapshots plus an append-only write-ahead
// journal of incremental records.
//
// Tagwatch's value is its *learned* state — per-link Gaussian immobility
// models that take minutes to converge, the pinned set, the fleet's
// merged tag registry — and a process crash must not send the system
// back to a cold start. The store offers two durability primitives:
//
//   - WriteSnapshot(payload): a full-state checkpoint written atomically
//     (tmp file → fsync → rename → directory fsync), CRC32C-checksummed
//     and versioned, opening a new generation;
//   - Append(record): an incremental record appended to the current
//     generation's journal and fsynced before the call returns. A nil
//     return is the durability ack: the record survives any crash after
//     that point.
//
// On top of them sits the one checkpoint protocol both daemons use
// (checkpoint.go): an Engine supplies its image, its drained changes and
// a decoder for each, and Restore, Journal and Snapshot do the rest.
//
// Recovery (performed by Open) loads the newest snapshot that validates,
// falling back generation by generation when a snapshot is corrupt, then
// replays the journals from that generation forward, tolerating a torn
// or truncated tail: a record whose framing or checksum fails ends the
// replay and is never surfaced to the caller. Old generations are
// retained by count and garbage-collected on snapshot.
//
// On-disk layout (one directory per store):
//
//	snap-00000003.tws   snapshot for generation 3
//	wal-00000003.twj    records appended since snapshot 3
//	snap-*.tws.tmp      in-flight snapshot (ignored and removed on open)
//
// A snapshot file is MAGIC ("TWSNAP01"), format version (uint32 LE),
// CRC32C of the payload (uint32 LE), payload length (uint64 LE), then
// the payload. A journal is a sequence of records, each payload length
// (uint32 LE), CRC32C of the payload (uint32 LE), then the payload.
// Payloads are opaque to the store; each Engine defines its own grammar
// (see core.Record and fleet's registry records).
package statestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// snapMagic brands snapshot files; snapVersion guards the header format.
const (
	snapMagic   = "TWSNAP01"
	snapVersion = 1

	snapSuffix = ".tws"
	walSuffix  = ".twj"
	tmpSuffix  = ".tmp"

	snapHeaderLen = 8 + 4 + 4 + 8 // magic + version + crc + length
	recHeaderLen  = 4 + 4         // length + crc

	// maxRecordLen bounds a single journal record; a length field beyond
	// it is treated as corruption, not an allocation request.
	maxRecordLen = 1 << 28
)

// castagnoli is the CRC32C table used for every checksum in the store.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrPoisoned marks a store whose journal tail is in an unknown state
// after a failed write: further appends would land after a torn record
// and be unreachable on replay. Reopen the directory to recover.
var ErrPoisoned = errors.New("statestore: poisoned by earlier write failure; reopen to recover")

// ErrSnapshotNeeded is returned by Append when recovery stopped replay
// before reaching the current journal (Recovery.ReplayStopped): records
// appended now would land beyond the replay horizon and be lost on the
// next open. A successful WriteSnapshot re-anchors the chain and clears
// the condition.
var ErrSnapshotNeeded = errors.New("statestore: replay stopped mid-chain; write a snapshot before appending")

// Options tunes a store.
type Options struct {
	// Retain is how many snapshot generations to keep (minimum 1,
	// default 2). Older snapshots and their journals are removed when a
	// new snapshot commits.
	Retain int
	// FS overrides the filesystem; nil uses the real one. The crash
	// harness injects CrashFS here.
	FS FS
}

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// HasSnapshot is false when no validating snapshot was found (a
	// fresh directory, or every snapshot was corrupt); Snapshot is the
	// payload of the one restored otherwise.
	HasSnapshot bool
	Snapshot    []byte
	// SnapshotGen is the generation of the restored snapshot.
	SnapshotGen uint64
	// Records are the journal records to replay on top of the snapshot,
	// oldest first. Every record's framing and checksum validated; a
	// corrupt record and everything after it are never surfaced.
	Records [][]byte
	// CorruptSnapshots counts newer snapshot generations that failed
	// validation and were skipped to reach the restored one.
	CorruptSnapshots int
	// TornTailBytes counts journal bytes discarded because framing or a
	// checksum broke — the torn tail of an interrupted append.
	TornTailBytes int64
	// ReplayStopped is true when the framing break was NOT at the end of
	// the newest journal, i.e. framing-valid data after the break was
	// discarded too (replay order would otherwise be violated).
	ReplayStopped bool
}

// Store is a single-writer durable state store. Methods are safe for
// concurrent use, but the intended shape is one owner checkpointing one
// engine.
type Store struct {
	dir    string
	fs     FS
	retain int

	// ckptMu serialises Journal and Snapshot; it is taken before mu.
	ckptMu sync.Mutex

	mu           sync.Mutex
	gen          uint64
	wal          File
	walOff       int64 // committed byte length of the current journal
	hasSnap      bool  // a validating snapshot exists on disk
	snapGen      uint64
	firstGen     uint64 // oldest generation whose journal starts replay
	poisoned     error
	needSnapshot bool
	recovery     Recovery

	// watchers are commit-notification channels registered by tailing
	// JournalReaders; each gets a non-blocking signal per commit.
	watchers    map[uint64]chan struct{}
	nextWatcher uint64
}

// Open opens (creating if needed) the store rooted at dir and performs
// recovery: leftover tmp files are removed, the newest valid snapshot
// and the replayable journal suffix are loaded (see Recovery), and the
// current journal's torn tail, if any, is truncated so new appends
// extend a clean record boundary.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	retain := opts.Retain
	if retain < 1 {
		retain = 2
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("statestore: create dir: %w", err)
	}
	s := &Store{dir: dir, fs: fsys, retain: retain, watchers: make(map[uint64]chan struct{})}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("statestore: list dir: %w", err)
	}
	var snapGens, walGens []uint64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// In-flight snapshot interrupted by a crash: never valid.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if g, ok := parseGen(name, "snap-", snapSuffix); ok {
			snapGens = append(snapGens, g)
		}
		if g, ok := parseGen(name, "wal-", walSuffix); ok {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// Current generation: the newest the directory knows about.
	for _, g := range snapGens {
		if g > s.gen {
			s.gen = g
		}
	}
	for _, g := range walGens {
		if g > s.gen {
			s.gen = g
		}
	}

	// Pick the newest snapshot that validates, walking backwards over
	// corrupt ones.
	rec := Recovery{}
	for i := len(snapGens) - 1; i >= 0; i-- {
		g := snapGens[i]
		payload, err := s.readSnapshot(g)
		if err != nil {
			rec.CorruptSnapshots++
			continue
		}
		rec.HasSnapshot = true
		rec.SnapshotGen = g
		rec.Snapshot = payload
		break
	}

	// Replay journals from the restored generation forward (or from the
	// oldest available journal on a cold/corrupt start). Replay must be
	// ordered, so a framing break anywhere ends it.
	replayFrom := rec.SnapshotGen
	if !rec.HasSnapshot && len(walGens) > 0 {
		replayFrom = walGens[0]
	}
	for i, g := range walGens {
		if g < replayFrom {
			continue
		}
		data, err := fsys.ReadFile(s.walPath(g))
		if err != nil {
			continue // no journal for this generation
		}
		records, validLen := parseJournal(data)
		rec.Records = append(rec.Records, records...)
		if g == s.gen {
			s.walOff = validLen
		}
		if validLen < int64(len(data)) {
			rec.TornTailBytes += int64(len(data)) - validLen
			if g == s.gen {
				// Truncate the current journal to the last valid record
				// boundary so future appends are replayable.
				if err := fsys.Truncate(s.walPath(g), validLen); err != nil {
					return nil, fmt.Errorf("statestore: truncate torn journal tail: %w", err)
				}
			}
			if i != len(walGens)-1 {
				rec.ReplayStopped = true
			}
			break // anything after a break is out of order
		}
	}
	s.recovery = rec
	s.needSnapshot = rec.ReplayStopped
	s.hasSnap = rec.HasSnapshot
	s.snapGen = rec.SnapshotGen
	s.firstGen = replayFrom

	wal, err := fsys.OpenAppend(s.walPath(s.gen))
	if err != nil {
		return nil, fmt.Errorf("statestore: open journal: %w", err)
	}
	s.wal = wal
	return s, nil
}

// Recovery returns what Open reconstructed. The caller applies the
// snapshot, then the records in order.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Gen reports the current snapshot generation.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Append frames, writes, and fsyncs one record to the current journal.
// A nil return acks durability. Any failure poisons the store (the tail
// is in an unknown state); reopen to recover.
func (s *Store) Append(record []byte) error {
	return s.AppendBatch([][]byte{record})
}

// AppendBatch appends several records with a single fsync — the
// per-cycle flush path. Either all records are acked or the store is
// poisoned.
func (s *Store) AppendBatch(records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range records {
		if len(r) == 0 {
			return errors.New("statestore: empty record")
		}
		if len(r) > maxRecordLen {
			return fmt.Errorf("statestore: record of %d bytes exceeds limit", len(r))
		}
		buf = appendRecord(buf, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poisoned)
	}
	if s.needSnapshot {
		return ErrSnapshotNeeded
	}
	if _, err := s.wal.Write(buf); err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: journal append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: journal fsync: %w", err)
	}
	s.walOff += int64(len(buf))
	s.notifyLocked()
	return nil
}

// WriteSnapshot commits a full-state checkpoint and opens generation
// gen+1: the snapshot is written to a tmp file, fsynced, renamed into
// place, and the directory fsynced; only then does the journal roll
// over and old generations get collected. A nil return acks durability
// of the snapshot. Any failure poisons the store.
func (s *Store) WriteSnapshot(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poisoned)
	}
	next := s.gen + 1
	final := s.snapPath(next)
	tmp := final + tmpSuffix

	if err := s.writeSnapshotFile(tmp, payload); err != nil {
		// The tmp file is ignored by recovery, but the fsync state of
		// anything we wrote is unknown — poison, like any failed write.
		s.poisoned = err
		return fmt.Errorf("statestore: write snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: commit snapshot: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: sync dir: %w", err)
	}

	// Roll the journal to the new generation.
	if err := s.wal.Close(); err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: close journal: %w", err)
	}
	wal, err := s.fs.OpenAppend(s.walPath(next))
	if err != nil {
		s.poisoned = err
		return fmt.Errorf("statestore: open journal gen %d: %w", next, err)
	}
	s.wal = wal
	s.gen = next
	s.walOff = 0
	s.hasSnap = true
	s.snapGen = next
	s.needSnapshot = false

	s.gc()
	s.notifyLocked()
	return nil
}

// appendRecord appends one framed journal record to buf.
func appendRecord(buf, r []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(r, castagnoli))
	return append(buf, r...)
}

// notifyLocked signals every registered watcher that the committed
// cursor advanced. Non-blocking by construction: each watcher channel
// has capacity one and a pending signal coalesces.
func (s *Store) notifyLocked() {
	for _, ch := range s.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// writeSnapshotFile writes header+payload to name and fsyncs it.
func (s *Store) writeSnapshotFile(name string, payload []byte) error {
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(snapshotHeader(payload)); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshotHeader returns the header that precedes payload in a
// snapshot file.
func snapshotHeader(payload []byte) []byte {
	hdr := append(make([]byte, 0, snapHeaderLen), snapMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, castagnoli))
	return binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
}

// gc removes generations older than the retain-newest snapshots. Journal
// files are kept as far back as the oldest retained snapshot so a
// corrupt newer snapshot can still roll forward from an older one.
// Removal is best-effort: a leftover file costs disk, not correctness.
func (s *Store) gc() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var snapGens []uint64
	for _, name := range names {
		if g, ok := parseGen(name, "snap-", snapSuffix); ok {
			snapGens = append(snapGens, g)
		}
	}
	if len(snapGens) <= s.retain {
		return
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	cutoff := snapGens[s.retain-1] // oldest retained generation
	for _, name := range names {
		g, ok := parseGen(name, "snap-", snapSuffix)
		if !ok {
			g, ok = parseGen(name, "wal-", walSuffix)
		}
		if ok && g < cutoff {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
		}
	}
}

// Close releases the journal handle. Appends already acked remain
// durable; the store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	if s.poisoned == nil {
		s.poisoned = errors.New("statestore: closed")
	}
	return err
}

func (s *Store) snapPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%08d%s", gen, snapSuffix))
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%08d%s", gen, walSuffix))
}

// readSnapshot loads and validates one snapshot generation, returning
// its payload.
func (s *Store) readSnapshot(gen uint64) ([]byte, error) {
	data, err := s.fs.ReadFile(s.snapPath(gen))
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// decodeSnapshot validates a snapshot file image: magic, version,
// length, checksum.
func decodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < snapHeaderLen {
		return nil, errors.New("statestore: snapshot shorter than header")
	}
	if string(data[0:8]) != snapMagic {
		return nil, errors.New("statestore: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapVersion {
		return nil, fmt.Errorf("statestore: snapshot format version %d, want %d", v, snapVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:16])
	length := binary.LittleEndian.Uint64(data[16:24])
	payload := data[snapHeaderLen:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("statestore: snapshot payload %d bytes, header says %d", len(payload), length)
	}
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return nil, errors.New("statestore: snapshot checksum mismatch")
	}
	return payload, nil
}

// parseJournal walks a journal image and returns every record whose
// framing and checksum validate, plus the byte length of that valid
// prefix. A short header, short payload, zero or oversized length, or a
// checksum mismatch ends the walk: everything from there on is the torn
// tail of an interrupted append (or corruption) and is never surfaced.
func parseJournal(data []byte) (records [][]byte, validLen int64) {
	records, validLen, _ = parseJournalLimited(data, 0)
	return records, validLen
}

// parseJournalLimited is parseJournal with a byte budget: once the
// records collected reach maxBytes (0 = unlimited), the walk stops with
// limited=true so a tailing reader ships bounded batches. At least one
// record is always returned when one validates, regardless of budget.
func parseJournalLimited(data []byte, maxBytes int64) (records [][]byte, validLen int64, limited bool) {
	off := int64(0)
	for int64(len(data))-off >= recHeaderLen {
		if maxBytes > 0 && len(records) > 0 && off >= maxBytes {
			return records, off, true
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxRecordLen {
			break
		}
		if int64(len(data))-off-recHeaderLen < length {
			break // torn payload
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+length]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			break
		}
		records = append(records, append([]byte(nil), payload...))
		off += recHeaderLen + length
	}
	return records, off, false
}

// parseGen extracts the generation number from a "prefix-NNNNNNNNsuffix"
// file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if digits == "" {
		return 0, false
	}
	var g uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		g = g*10 + uint64(c-'0')
	}
	return g, true
}
