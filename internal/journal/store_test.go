package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seqRec is the shape the store tests journal: a record that knows its own
// sequence number, like the fleet's round-stamped records.
type seqRec struct {
	Seq int    `json:"seq"`
	Pad string `json:"pad,omitempty"`
}

func encodeSeq(t *testing.T, seq int, pad int) []byte {
	t.Helper()
	p, err := json.Marshal(seqRec{Seq: seq, Pad: string(bytes.Repeat([]byte("x"), pad))})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func decodeSeq(rec []byte) int {
	var r seqRec
	if json.Unmarshal(rec, &r) != nil {
		return -1
	}
	return r.Seq
}

// keepAfter keeps records with Seq > n — the fleet's compaction predicate.
func keepAfter(n int) func([]byte) bool {
	return func(rec []byte) bool { return decodeSeq(rec) > n }
}

// TestWriterFailStopOnShortWrite is the satellite regression test: after an
// injected short write the writer must refuse every further append — the
// file offset is unknown, so appending again could land a frame inside the
// torn one and silently corrupt the WAL.
func TestWriterFailStopOnShortWrite(t *testing.T) {
	efs := NewErrFS(OS)
	path := tmpJournal(t)
	w := openWriter(t, efs, path)
	if err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	efs.ShortWriteNext(3)
	if err := w.Append([]byte("torn-in-flight")); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write surfaced as %v, want ErrInjected", err)
	}
	// fail-stop: the next append must not touch the file
	before, _ := os.ReadFile(path)
	if err := w.Append([]byte("must-not-land")); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append after short write returned %v, want ErrWriterFailed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("sync after short write returned %v, want ErrWriterFailed", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("a poisoned writer still wrote bytes")
	}
	if w.Err() == nil {
		t.Fatal("poisoned writer reports nil Err")
	}
	w.Close()

	// recovery truncates the torn frame and keeps the committed record
	_, records, truncated, err := OpenAppendFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "good" || truncated != 3 {
		t.Fatalf("recovery after torn append: records=%q truncated=%d", records, truncated)
	}
}

// TestWriterFailStopOnSyncFailure: a failed fsync poisons the writer — the
// kernel may have dropped the dirty pages, so nothing after the failure may
// be acknowledged.
func TestWriterFailStopOnSyncFailure(t *testing.T) {
	efs := NewErrFS(OS)
	w := openWriter(t, efs, tmpJournal(t))
	if err := w.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	efs.FailNextSync(1)
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected fsync failure surfaced as %v", err)
	}
	if err := w.Append([]byte("r2")); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append after failed fsync returned %v, want ErrWriterFailed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("close of poisoned writer returned %v, want ErrWriterFailed", err)
	}
}

// TestWriterNoSpace: ENOSPC is a persistent fault; the first hit poisons the
// writer like any other append failure.
func TestWriterNoSpace(t *testing.T) {
	efs := NewErrFS(OS)
	w := openWriter(t, efs, tmpJournal(t))
	efs.SetNoSpace(true)
	if err := w.Append([]byte("r")); !errors.Is(err, ErrInjected) {
		t.Fatalf("ENOSPC surfaced as %v", err)
	}
	if err := w.Append([]byte("r")); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append on full disk returned %v, want ErrWriterFailed", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	payload := []byte(`{"type":"snapshot","round":17}`)
	img := EncodeSnapshot(7, 17, payload)
	got, gen, seq, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 || seq != 17 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: gen=%d seq=%d payload=%q", gen, seq, got)
	}
	// strictness: truncation, bit flips and trailing garbage all fail
	for cut := 1; cut < len(img); cut += 5 {
		if _, _, _, err := DecodeSnapshot(img[:len(img)-cut]); err == nil {
			t.Fatalf("truncated snapshot (cut %d) decoded", cut)
		}
	}
	flip := append([]byte(nil), img...)
	flip[len(flip)-1] ^= 0x01
	if _, _, _, err := DecodeSnapshot(flip); err == nil {
		t.Fatal("bit-flipped snapshot decoded")
	}
	if _, _, _, err := DecodeSnapshot(append(append([]byte(nil), img...), 0xA7)); err == nil {
		t.Fatal("snapshot with trailing garbage decoded")
	}
}

// driveStore appends seq-stamped records through a store, compacting after
// every compactEvery appends (seq is the record index, 1-based).
func driveStore(t *testing.T, s *Store, from, to, compactEvery int, lastSnapSeq *int) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := s.Append(encodeSeq(t, seq, 120)); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("sync seq %d: %v", seq, err)
		}
		if compactEvery > 0 && seq%compactEvery == 0 {
			snap := encodeSeq(t, seq, 0)
			if err := s.Compact(snap, uint64(seq), keepAfter(*lastSnapSeq)); err != nil {
				t.Fatalf("compact at seq %d: %v", seq, err)
			}
			*lastSnapSeq = seq
		}
	}
}

// TestStoreCompactionBoundsWAL: over a long run with periodic compaction the
// WAL retains exactly the records after the previous snapshot generation —
// bounded, and never fewer than a one-generation fallback needs.
func TestStoreCompactionBoundsWAL(t *testing.T) {
	path := tmpJournal(t)
	s, rec, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh store recovered %d records, snapshot=%v", len(rec.Records), rec.Snapshot != nil)
	}
	last := 0
	driveStore(t, s, 1, 40, 8, &last)
	// after the compaction at seq 40, the WAL holds records 33..40 (those
	// after the previous generation's seq 32)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	records, truncated := replay(t, path)
	if truncated != 0 {
		t.Fatalf("replay: truncated=%d", truncated)
	}
	if len(records) != 8 || decodeSeq(records[0]) != 33 || decodeSeq(records[7]) != 40 {
		seqs := make([]int, len(records))
		for i, r := range records {
			seqs[i] = decodeSeq(r)
		}
		t.Fatalf("post-compaction WAL holds seqs %v, want 33..40", seqs)
	}
	// only keepSnapshots generations remain on disk
	gens, temps, err := listSnapshots(OS, path)
	if err != nil || len(temps) != 0 {
		t.Fatalf("listSnapshots: temps=%v err=%v", temps, err)
	}
	if len(gens) != 2 || gens[0] != 5 || gens[1] != 4 {
		t.Fatalf("retained generations %v, want [5 4]", gens)
	}

	// recovery prefers the newest snapshot + tail
	s2, rec2, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Snapshot == nil || rec2.SnapshotGen != 5 || rec2.SnapshotSeq != 40 {
		t.Fatalf("recovered snapshot gen=%d seq=%d", rec2.SnapshotGen, rec2.SnapshotSeq)
	}
	if rec2.SnapshotsSkipped != 0 || len(rec2.Records) != 8 {
		t.Fatalf("recovered skipped=%d records=%d", rec2.SnapshotsSkipped, len(rec2.Records))
	}
}

// TestStoreFallbackOnCorruptSnapshot: flipping bytes in the newest
// generation makes recovery fall back one generation — and because the WAL
// keeps everything after that previous generation, no committed record is
// lost.
func TestStoreFallbackOnCorruptSnapshot(t *testing.T) {
	path := tmpJournal(t)
	s, _, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	driveStore(t, s, 1, 20, 8, &last) // generations at seq 8 (gen 1) and 16 (gen 2); WAL: 9..20
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	newest := snapshotPath(path, 2)
	img, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-4] ^= 0xFF
	if err := os.WriteFile(newest, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotsSkipped != 1 || rec.SnapshotGen != 1 || rec.SnapshotSeq != 8 {
		t.Fatalf("fallback: skipped=%d gen=%d seq=%d", rec.SnapshotsSkipped, rec.SnapshotGen, rec.SnapshotSeq)
	}
	// snapshot(8) + WAL records 9..20 = complete state: nothing lost
	want := 9
	for _, r := range rec.Records {
		if seq := decodeSeq(r); seq > 8 {
			if seq != want {
				t.Fatalf("fallback tail: got seq %d, want %d", seq, want)
			}
			want++
		}
	}
	if want != 21 {
		t.Fatalf("fallback tail covered up to %d, want 20", want-1)
	}
	// the next compaction must write ABOVE the corrupt generation
	if err := s2.Compact(encodeSeq(t, 20, 0), 20, keepAfter(8)); err != nil {
		t.Fatal(err)
	}
	if s2.Generation() != 3 {
		t.Fatalf("post-fallback compaction wrote generation %d, want 3", s2.Generation())
	}
	s2.Close()
}

// TestStoreIgnoresTornSnapshotPublish: a crash between snapshot temp write
// and rename leaves a ".tmp" file; recovery must ignore and remove it.
func TestStoreIgnoresTornSnapshotPublish(t *testing.T) {
	path := tmpJournal(t)
	s, _, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	driveStore(t, s, 1, 10, 8, &last)
	s.Close()
	tmp := snapshotPath(path, 99) + ".tmp"
	if err := os.WriteFile(tmp, []byte("RSNP torn halfway thro"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotGen != 1 || rec.SnapshotsSkipped != 0 {
		t.Fatalf("torn temp influenced recovery: gen=%d skipped=%d", rec.SnapshotGen, rec.SnapshotsSkipped)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("torn snapshot temp not cleaned up")
	}
}

// TestStoreTornRenameLeavesOldGenerationLive: an injected rename failure on
// the snapshot publish must leave the previous generation (and the whole
// WAL) authoritative.
func TestStoreTornRenameLeavesOldGenerationLive(t *testing.T) {
	efs := NewErrFS(OS)
	path := tmpJournal(t)
	s, _, err := OpenStore(path, StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	driveStore(t, s, 1, 8, 8, &last) // gen 1 at seq 8
	driveStore(t, s, 9, 12, 0, &last)
	efs.FailNextRename()
	err = s.Compact(encodeSeq(t, 12, 0), 12, keepAfter(8))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn rename surfaced as %v", err)
	}
	// the store keeps working: appends land, and recovery sees gen 1 + full tail
	driveStore(t, s, 13, 14, 0, &last)
	s.Close()
	efs.Heal()
	_, rec, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotGen != 1 || rec.SnapshotSeq != 8 {
		t.Fatalf("after torn rename: gen=%d seq=%d, want 1/8", rec.SnapshotGen, rec.SnapshotSeq)
	}
	// gen 1's compaction kept everything after gen 0 (the whole history), and
	// the failed gen-2 publish must not have touched the WAL — so snapshot(8)
	// plus records 9..14 reconstruct the full state
	want := 9
	for _, r := range rec.Records {
		if seq := decodeSeq(r); seq > 8 {
			if seq != want {
				t.Fatalf("tail after torn rename: got seq %d, want %d", seq, want)
			}
			want++
		}
	}
	if want != 15 {
		t.Fatalf("tail after torn rename covered up to %d, want 14", want-1)
	}
}

// TestStoreCrashAtByte: the FS dies mid-frame at an arbitrary byte; the
// append surfaces a typed error, and recovery over the healed disk resumes
// from the last synced record with the torn tail truncated.
func TestStoreCrashAtByte(t *testing.T) {
	efs := NewErrFS(OS)
	path := tmpJournal(t)
	s, _, err := OpenStore(path, StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	driveStore(t, s, 1, 5, 0, &last)
	efs.CrashAtByte(efs.BytesWritten() + 7) // tear 7 bytes into the next frame
	if err := s.Append(encodeSeq(t, 6, 120)); !errors.Is(err, ErrInjected) {
		t.Fatalf("crash-at-byte surfaced as %v", err)
	}
	if err := s.Append(encodeSeq(t, 7, 0)); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append after crash returned %v, want ErrWriterFailed", err)
	}
	s.Close()
	efs.Heal()
	_, rec, err := OpenStore(path, StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 || rec.Truncated != 7 {
		t.Fatalf("crash recovery: records=%d truncated=%d, want 5/7", len(rec.Records), rec.Truncated)
	}
	for i, r := range rec.Records {
		if decodeSeq(r) != i+1 {
			t.Fatalf("record %d decoded seq %d", i, decodeSeq(r))
		}
	}
}

// TestStoreShouldCompact tracks the size trigger across appends, compaction
// and reopen.
func TestStoreShouldCompact(t *testing.T) {
	path := tmpJournal(t)
	s, _, err := OpenStore(path, StoreConfig{CompactBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if s.ShouldCompact() {
		t.Fatal("empty store wants compaction")
	}
	last := 0
	for seq := 1; !s.ShouldCompact(); seq++ {
		if seq > 100 {
			t.Fatal("store never armed compaction")
		}
		driveStore(t, s, seq, seq, 0, &last)
	}
	if err := s.Compact(encodeSeq(t, 99, 0), 99, keepAfter(98)); err != nil {
		t.Fatal(err)
	}
	if s.ShouldCompact() {
		t.Fatalf("compaction left %d WAL bytes, still over threshold", s.Size())
	}
	s.Close()
}

// TestSnapshotPathParsing pins the name scheme the recovery walk depends on.
func TestSnapshotPathParsing(t *testing.T) {
	p := snapshotPath(filepath.Join("some", "dir", "fleet.wal"), 0x2a)
	dir, base := splitPath(p)
	if dir != filepath.Join("some", "dir") {
		t.Fatalf("dir %q", dir)
	}
	gen, ok := snapshotGen("fleet.wal", base)
	if !ok || gen != 0x2a {
		t.Fatalf("parse %q: gen=%d ok=%v", base, gen, ok)
	}
	for _, bad := range []string{
		"fleet.wal", "fleet.wal.snap-", "fleet.wal.snap-zzzz",
		fmt.Sprintf("other.wal.snap-%016x", 1),
		fmt.Sprintf("fleet.wal.snap-%016x.tmp", 1),
	} {
		if _, ok := snapshotGen("fleet.wal", bad); ok {
			t.Fatalf("foreign name %q parsed as a snapshot", bad)
		}
	}
}
