package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "fleet.wal")
}

// openWriter opens the journal at path for appends, creating it when absent.
func openWriter(t *testing.T, fsys FS, path string) *Writer {
	t.Helper()
	w, _, _, err := OpenAppendFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replay decodes the journal at path without opening it for writing: its
// intact records, and how many bytes of torn or corrupt tail follow them.
func replay(t *testing.T, path string) (records [][]byte, truncated int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, consumed := DecodeAll(data)
	return records, len(data) - consumed
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	w := openWriter(t, OS, path)
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer third record with bytes \x00\xff")}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	records, truncated := replay(t, path)
	if truncated != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", truncated)
	}
	if len(records) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(records), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(records[i], payloads[i]) {
			t.Fatalf("record %d: got %q want %q", i, records[i], payloads[i])
		}
	}
}

// TestReopenEmptyJournal is the regression test for the zero-length-WAL
// path: a journal file that exists but holds no records yet — created and
// crashed before the first append, or just touched by provisioning — must
// reopen as a valid empty journal (no records, nothing truncated, writer
// positioned at byte 0), not as an error. Both the never-written and the
// created-then-closed-empty variants are covered.
func TestReopenEmptyJournal(t *testing.T) {
	cases := map[string]func(t *testing.T, path string){
		"touched": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"created-closed": func(t *testing.T, path string) {
			w := openWriter(t, OS, path)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			path := tmpJournal(t)
			setup(t, path)
			w, records, truncated, err := OpenAppendFS(OS, path)
			if err != nil {
				t.Fatalf("reopening an empty journal failed: %v", err)
			}
			if len(records) != 0 || truncated != 0 {
				t.Fatalf("empty journal replayed records=%d truncated=%d", len(records), truncated)
			}
			// and it must be fully usable from there
			if err := w.Append([]byte("first")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			records, truncated = replay(t, path)
			if truncated != 0 || len(records) != 1 || string(records[0]) != "first" {
				t.Fatalf("post-reopen journal unusable: records=%q truncated=%d", records, truncated)
			}
		})
	}
}

// TestTornTailTruncated simulates a crash mid-append: the final frame is cut
// at every possible byte boundary, and the reopen must recover exactly the
// records before it.
func TestTornTailTruncated(t *testing.T) {
	full := append(Encode([]byte("first")), Encode([]byte("second"))...)
	second := Encode([]byte("second"))
	for cut := 1; cut < len(second); cut++ {
		path := tmpJournal(t)
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, records, truncated, err := OpenAppendFS(OS, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(records) != 1 || string(records[0]) != "first" {
			t.Fatalf("cut %d: replayed %d records, want just %q", cut, len(records), "first")
		}
		if truncated != len(second)-cut {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, truncated, len(second)-cut)
		}
		// the writer must append cleanly after the truncation point
		if err := w.Append([]byte("resumed")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		records, truncated = replay(t, path)
		if truncated != 0 {
			t.Fatalf("cut %d: post-resume replay truncated=%d", cut, truncated)
		}
		if len(records) != 2 || string(records[1]) != "resumed" {
			t.Fatalf("cut %d: post-resume records %q", cut, records)
		}
	}
}

// TestCorruptTailTruncated flips one byte in the last record; the reopen must
// drop that record entirely and keep the intact prefix.
func TestCorruptTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	data := append(Encode([]byte("keep-me")), Encode([]byte("corrupt-me"))...)
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, records, truncated, err := OpenAppendFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "keep-me" {
		t.Fatalf("replayed %q, want just keep-me", records)
	}
	if truncated == 0 {
		t.Fatal("corrupt tail not reported as truncated")
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(Encode([]byte("keep-me")))) {
		t.Fatalf("file not truncated to the intact prefix: %d bytes", fi.Size())
	}
}

// TestGarbageFile: a journal that is pure garbage replays as empty, not as
// an error and not as garbage records.
func TestGarbageFile(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x13, 0x37}, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	records, truncated := replay(t, path)
	if len(records) != 0 || truncated != 600 {
		t.Fatalf("garbage replay: records=%d truncated=%d", len(records), truncated)
	}
}

// TestAbsurdLengthRejected: a frame whose length field promises more than
// MaxRecord must be treated as corruption, not an allocation request.
func TestAbsurdLengthRejected(t *testing.T) {
	frame := Encode([]byte("ok"))
	bad := []byte{recordMagic, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	records, consumed := DecodeAll(append(frame, bad...))
	if len(records) != 1 || consumed != len(frame) {
		t.Fatalf("records=%d consumed=%d, want 1/%d", len(records), consumed, len(frame))
	}
}

func TestAppendAfterClose(t *testing.T) {
	w := openWriter(t, OS, tmpJournal(t))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	w := openWriter(t, OS, tmpJournal(t))
	defer w.Close()
	if err := w.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize append succeeded")
	}
}
