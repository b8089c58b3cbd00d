package journal

import (
	"fmt"
	"os"
)

// StoreConfig tunes a Store.
type StoreConfig struct {
	// FS is the storage seam (nil → OS).
	FS FS
	// CompactBytes is the WAL size that arms ShouldCompact (0 → 1 MiB).
	CompactBytes int64
}

// keepSnapshots is how many snapshot generations stay on disk. Two is the
// floor that makes the corrupt-newest-generation fallback lossless: the WAL
// always retains every record after the previous generation (see Compact),
// so gen N-1 plus the WAL reconstructs the exact state gen N held.
const keepSnapshots = 2

func (c StoreConfig) withDefaults() StoreConfig {
	if c.FS == nil {
		c.FS = OS
	}
	if c.CompactBytes == 0 {
		c.CompactBytes = 1 << 20
	}
	return c
}

// Recovered is what OpenStore reconstructed from disk: the newest valid
// snapshot (nil when none exists — the store has not compacted yet) plus
// every intact WAL record. The caller folds the snapshot first, then the
// records whose sequence exceeds SnapshotSeq — records at or below it predate
// the snapshot (a crash between snapshot publish and WAL rewrite leaves them
// behind, harmlessly).
type Recovered struct {
	Snapshot    []byte // newest valid snapshot payload (nil: none)
	SnapshotGen uint64
	SnapshotSeq uint64
	Records     [][]byte // intact WAL records, in append order
	// Truncated is the torn-tail bytes discarded from the WAL on reopen.
	Truncated int
	// SnapshotsSkipped counts newer snapshot generations that failed to
	// decode and were passed over — each one a fallback the caller may want
	// to alarm on.
	SnapshotsSkipped int
}

// Store bundles a WAL with its snapshot family: appends and group-commit
// syncs go to the WAL; Compact periodically folds the WAL into a fresh
// snapshot generation so the journal's disk footprint stays bounded over a
// device fleet's whole lifetime. A Store is not safe for concurrent use —
// it belongs to the supervisor's owner goroutine, like the Writer it wraps.
type Store struct {
	fs   FS
	cfg  StoreConfig
	path string
	w    *Writer
	gen  uint64 // newest generation on disk (valid or not); next Compact writes gen+1
}

// OpenStore opens (or creates) the durable state rooted at the WAL path:
// leftover snapshot temp files from a torn publish are removed, the newest
// decodable snapshot generation is loaded (falling back a generation per
// corrupt file), and the WAL is opened for appending with any torn tail
// truncated. A fresh directory opens as an empty store.
func OpenStore(path string, cfg StoreConfig) (*Store, Recovered, error) {
	cfg = cfg.withDefaults()
	s := &Store{fs: cfg.FS, cfg: cfg, path: path}
	var rec Recovered

	gens, temps, err := listSnapshots(s.fs, path)
	if err != nil {
		return nil, rec, err
	}
	for _, tmp := range temps {
		s.fs.Remove(tmp) // torn publish leftovers; best effort
	}
	if len(gens) > 0 {
		s.gen = gens[0]
	}
	for _, gen := range gens {
		data, err := s.fs.ReadFile(snapshotPath(path, gen))
		if err != nil {
			rec.SnapshotsSkipped++
			continue
		}
		payload, g, seq, err := DecodeSnapshot(data)
		if err != nil || g != gen {
			rec.SnapshotsSkipped++
			continue
		}
		rec.Snapshot, rec.SnapshotGen, rec.SnapshotSeq = payload, gen, seq
		break
	}

	w, records, truncated, err := OpenAppendFS(s.fs, path)
	if err != nil {
		return nil, rec, err
	}
	s.w = w
	rec.Records = records
	rec.Truncated = truncated
	return s, rec, nil
}

// Append frames payload onto the WAL (fail-stop on I/O error, like Writer).
func (s *Store) Append(payload []byte) error { return s.w.Append(payload) }

// Sync group-commits appended records to stable storage.
func (s *Store) Sync() error { return s.w.Sync() }

// Err returns the WAL writer's sticky failure (nil while healthy).
func (s *Store) Err() error { return s.w.Err() }

// Size returns the current WAL length in bytes.
func (s *Store) Size() int64 { return s.w.Size() }

// Generation returns the newest snapshot generation on disk.
func (s *Store) Generation() uint64 { return s.gen }

// Path returns the WAL path.
func (s *Store) Path() string { return s.path }

// ShouldCompact reports whether the WAL has crossed the compaction
// threshold.
func (s *Store) ShouldCompact() bool { return s.w.Size() >= s.cfg.CompactBytes }

// Compact publishes snapshot (at caller sequence seq) as the next
// generation, then rewrites the WAL keeping only the records for which keep
// returns true — the caller passes a predicate keeping everything *after
// the previous snapshot generation*, which is exactly what makes a
// fallback to that generation lossless. The write order is crash-safe at
// every step:
//
//  1. WAL is synced (nothing the snapshot supersedes is still in flight),
//  2. the snapshot is published temp → fsync → rename,
//  3. the filtered WAL is built as a temp sibling, fsynced, renamed over
//     the live WAL, and reopened for appending.
//
// A crash or injected fault between (2) and (3) leaves stale records in the
// WAL; recovery filters them by sequence. A failure in (2) leaves the old
// generation live and the WAL whole. Only a failure reopening the WAL in
// (3) poisons the store (ErrWriterFailed).
func (s *Store) Compact(snapshot []byte, seq uint64, keep func(rec []byte) bool) error {
	if err := s.w.Err(); err != nil {
		return fmt.Errorf("journal: compact %s: %w", s.path, err)
	}
	if err := s.w.Sync(); err != nil {
		return err
	}
	gen := s.gen + 1
	if err := WriteSnapshot(s.fs, s.path, gen, seq, snapshot); err != nil {
		return err
	}
	s.gen = gen

	// rewrite the WAL: everything since the previous generation survives
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("journal: compact read %s: %w", s.path, err)
	}
	records, _ := DecodeAll(data)
	tmp := s.path + ".compact.tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact temp %s: %w", tmp, err)
	}
	for _, rec := range records {
		if keep != nil && !keep(rec) {
			continue
		}
		frame := Encode(rec)
		if n, err := f.Write(frame); err != nil || n != len(frame) {
			f.Close()
			s.fs.Remove(tmp)
			if err == nil {
				err = fmt.Errorf("short write: %d of %d bytes", n, len(frame))
			}
			return fmt.Errorf("journal: compact write %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("journal: compact fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("journal: compact close %s: %w", tmp, err)
	}
	// swap: close the live writer, rename the filtered WAL into place,
	// reopen for appending. The old WAL's content is a superset of the new
	// one, so a crash anywhere in the swap recovers to the same state.
	if err := s.w.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("journal: compact swap %s: %w", s.path, err)
	}
	renameErr := s.fs.Rename(tmp, s.path)
	w, _, _, err := OpenAppendFS(s.fs, s.path)
	if err != nil {
		// no live writer: the store is poisoned exactly like a failed append
		s.w = &Writer{path: s.path, closed: true, err: err}
		return fmt.Errorf("journal: compact reopen %s: %w: %v", s.path, ErrWriterFailed, err)
	}
	s.w = w
	if renameErr != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("journal: compact swap %s: %w", s.path, renameErr)
	}
	s.prune()
	return nil
}

// prune removes snapshot generations beyond keepSnapshots, best effort.
func (s *Store) prune() {
	gens, _, err := listSnapshots(s.fs, s.path)
	if err != nil {
		return
	}
	for i, gen := range gens {
		if i >= keepSnapshots {
			s.fs.Remove(snapshotPath(s.path, gen))
		}
	}
}

// Close syncs and releases the WAL.
func (s *Store) Close() error { return s.w.Close() }
