// Package journal is the crash-safety substrate of the fleet supervisor: an
// append-only, checksummed write-ahead log of durable state transitions.
// Every record is framed as
//
//	magic(1) | length(uint32 LE) | crc32-IEEE(uint32 LE) | payload
//
// so a reader can walk the file record by record and stop at the first frame
// that does not check out. The failure model is a supervisor process dying at
// an arbitrary byte boundary (torn final write) or a storage layer flipping
// bits near the tail: on reopen the corrupt suffix is detected, measured and
// *truncated* — never replayed, never trusted. Everything before the first
// bad frame is intact by construction (CRC per record), so replaying a
// journal reconstructs exactly the state the supervisor had durably reached.
//
// The framing is deliberately tiny and dependency-free: DecodeAll is a pure
// function over a byte slice, which is what makes the decoder fuzzable
// (FuzzDecodeAll) — no file handles, no clocks, no allocation beyond the
// record slices themselves.
package journal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	// recordMagic opens every frame; a mismatch marks the corrupt tail.
	recordMagic = 0xA7
	// headerSize is magic + length + crc.
	headerSize = 1 + 4 + 4
	// MaxRecord bounds a single payload. A length field larger than this is
	// treated as corruption rather than an instruction to allocate gigabytes.
	MaxRecord = 1 << 20
)

// Encode frames one payload as a journal record.
func Encode(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	out[0] = recordMagic
	putUint32(out[1:5], uint32(len(payload)))
	putUint32(out[5:9], crc32.ChecksumIEEE(payload))
	copy(out[headerSize:], payload)
	return out
}

// DecodeAll walks data from the front and returns every intact record plus
// the number of bytes consumed by them. It never fails and never panics:
// decoding stops at the first frame whose magic, length bound, size or CRC
// does not check out, and everything from there on — a torn tail, flipped
// bits, arbitrary garbage — is simply not consumed. The strong invariant
// (held by construction and enforced by the fuzz target) is
//
//	concat(Encode(r) for r in records) == data[:consumed]
func DecodeAll(data []byte) (records [][]byte, consumed int) {
	for {
		rec, n := decodeOne(data[consumed:])
		if n == 0 {
			return records, consumed
		}
		records = append(records, rec)
		consumed += n
	}
}

// decodeOne decodes the first frame of data, returning (payload, frameSize)
// or (nil, 0) when the front of data is not an intact frame.
func decodeOne(data []byte) ([]byte, int) {
	if len(data) < headerSize || data[0] != recordMagic {
		return nil, 0
	}
	length := int(getUint32(data[1:5]))
	if length > MaxRecord || headerSize+length > len(data) {
		return nil, 0 // absurd length or torn payload
	}
	payload := data[headerSize : headerSize+length]
	if crc32.ChecksumIEEE(payload) != getUint32(data[5:9]) {
		return nil, 0
	}
	// return a copy so callers can hold records while the caller's buffer is
	// reused or unmapped
	out := make([]byte, length)
	copy(out, payload)
	return out, headerSize + length
}

// ErrWriterFailed marks a Writer that has gone fail-stop: an earlier Append
// or Sync met an I/O error, so the file offset (and with an fsync failure,
// even the durability of already-written frames) is no longer trustworthy.
// Every later Append/Sync fails with an error matching this sentinel rather
// than landing bytes at an unknown position. The owner must recover by
// reopening the journal (OpenAppendFS truncates whatever the failed write
// tore) — or degrade to memory-only operation.
var ErrWriterFailed = errors.New("journal: writer failed — journal poisoned")

// Writer appends records to a journal file. Appends are synchronously
// flushed to the OS; Sync additionally forces them to stable storage. A
// Writer is not safe for concurrent use — the supervisor serialises appends.
//
// Writers are fail-stop: the first I/O error on Append or Sync poisons the
// writer permanently (see ErrWriterFailed).
type Writer struct {
	f      File
	path   string
	size   int64 // bytes of intact frames written so far
	closed bool
	err    error // sticky: first I/O failure, fail-stop from then on
}

// OpenAppendFS opens an existing journal on fsys (creating it when absent)
// for further appends after a crash. It replays the file, truncates any
// corrupt or torn tail, and returns the intact records plus how many
// trailing bytes were discarded. The returned writer appends immediately
// after the last intact record.
func OpenAppendFS(fsys FS, path string) (w *Writer, records [][]byte, truncated int, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: read %s: %w", path, err)
	}
	records, consumed := DecodeAll(data)
	truncated = len(data) - consumed
	if truncated > 0 {
		if err := f.Truncate(int64(consumed)); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("journal: truncate corrupt tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(consumed), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	return &Writer{f: f, path: path, size: int64(consumed)}, records, truncated, nil
}

// Append frames payload and writes it to the journal. A failed write leaves
// the writer fail-stop (ErrWriterFailed): the frame may have partially
// landed, so the append position is unknown and no later record may be
// trusted to start on a frame boundary.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return fmt.Errorf("journal: append to %s: %w: %v", w.path, ErrWriterFailed, w.err)
	}
	if w.closed {
		return fmt.Errorf("journal: append to closed writer %s", w.path)
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	frame := Encode(payload)
	n, err := w.f.Write(frame)
	if err != nil {
		w.err = fmt.Errorf("append of %d bytes landed %d: %w", len(frame), n, err)
		return fmt.Errorf("journal: append to %s: %w", w.path, err)
	}
	if n != len(frame) {
		// a short write without an error violates the io.Writer contract, but
		// the journal is the last line of defense — treat it as fatal anyway
		w.err = fmt.Errorf("short write: %d of %d bytes", n, len(frame))
		return fmt.Errorf("journal: append to %s: %w: %v", w.path, ErrWriterFailed, w.err)
	}
	w.size += int64(n)
	return nil
}

// Sync forces appended records to stable storage. The supervisor calls it
// once per fleet tick (group commit) rather than per record. A failed fsync
// poisons the writer (fail-stop): the kernel may have dropped the dirty
// pages, so nothing written since the last successful Sync is trustworthy.
func (w *Writer) Sync() error {
	if w.err != nil {
		return fmt.Errorf("journal: sync %s: %w: %v", w.path, ErrWriterFailed, w.err)
	}
	if w.closed {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("fsync: %w", err)
		return fmt.Errorf("journal: sync %s: %w", w.path, err)
	}
	return nil
}

// Close syncs and releases the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		w.f.Close()
		return fmt.Errorf("journal: close %s: %w: %v", w.path, ErrWriterFailed, w.err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Err returns the sticky failure that made the writer fail-stop (nil while
// healthy).
func (w *Writer) Err() error { return w.err }

// Size returns the bytes of intact frames appended so far (the WAL length,
// excluding any torn tail a failed write may have left).
func (w *Writer) Size() int64 { return w.size }

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
