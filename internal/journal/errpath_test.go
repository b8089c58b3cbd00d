package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pickyFS fails the one operation it names on files whose name ends with
// suffix: "open", "readfile", "readdir", "rename", or on the files it opened
// "read", "write", "short" (a write that lands one byte less and reports no
// error, which no os.File does), "sync", "truncate", "seek" and "close". It
// reaches the steps ErrFS cannot single out, such as the third fsync of a
// compaction.
type pickyFS struct {
	FS
	op, suffix string
}

func (p *pickyFS) hit(op, name string) error {
	if p.op == op && strings.HasSuffix(name, p.suffix) {
		return fmt.Errorf("%w: %s %s", ErrInjected, op, name)
	}
	return nil
}

func (p *pickyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := p.hit("open", name); err != nil {
		return nil, err
	}
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &pickyFile{File: f, fs: p, name: name}, nil
}

func (p *pickyFS) ReadFile(name string) ([]byte, error) {
	if err := p.hit("readfile", name); err != nil {
		return nil, err
	}
	return p.FS.ReadFile(name)
}

func (p *pickyFS) ReadDirNames(dir string) ([]string, error) {
	if err := p.hit("readdir", dir); err != nil {
		return nil, err
	}
	return p.FS.ReadDirNames(dir)
}

func (p *pickyFS) Rename(oldpath, newpath string) error {
	if err := p.hit("rename", oldpath); err != nil {
		return err
	}
	return p.FS.Rename(oldpath, newpath)
}

type pickyFile struct {
	File
	fs   *pickyFS
	name string
}

func (f *pickyFile) Read(b []byte) (int, error) {
	if err := f.fs.hit("read", f.name); err != nil {
		return 0, err
	}
	return f.File.Read(b)
}

func (f *pickyFile) Write(b []byte) (int, error) {
	if err := f.fs.hit("write", f.name); err != nil {
		return 0, err
	}
	if f.fs.hit("short", f.name) != nil && len(b) > 0 {
		return f.File.Write(b[:len(b)-1])
	}
	return f.File.Write(b)
}

func (f *pickyFile) Sync() error {
	if err := f.fs.hit("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *pickyFile) Truncate(size int64) error {
	if err := f.fs.hit("truncate", f.name); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *pickyFile) Seek(off int64, whence int) (int64, error) {
	if err := f.fs.hit("seek", f.name); err != nil {
		return 0, err
	}
	return f.File.Seek(off, whence)
}

func (f *pickyFile) Close() error {
	err := f.File.Close()
	if herr := f.fs.hit("close", f.name); herr != nil {
		return herr
	}
	return err
}

// TestCompactErrorPaths fails each step of Store.Compact in turn. Every
// failure is reported with the step that failed, and a failure before the
// WAL swap leaves both records on disk for the next open.
func TestCompactErrorPaths(t *testing.T) {
	const snapTmp = ".snap-0000000000000001.tmp"
	for _, tc := range []struct {
		name     string
		arm      func(*Store, *ErrFS, *pickyFS)
		snapshot []byte
		want     string
		poisoned bool // the store refuses appends afterwards
	}{
		{name: "failed writer", arm: func(s *Store, e *ErrFS, _ *pickyFS) {
			e.ShortWriteNext(0)
			_ = s.Append([]byte("lost"))
			e.Heal()
		}, want: "compact", poisoned: true},
		{name: "wal fsync", arm: func(_ *Store, e *ErrFS, _ *pickyFS) { e.FailNextSync(1) }, want: "sync", poisoned: true},
		{name: "oversized snapshot", snapshot: make([]byte, MaxRecord+1), want: "exceeds MaxRecord"},
		{name: "snapshot temp", arm: pick("open", snapTmp), want: "snapshot temp"},
		{name: "snapshot write", arm: func(_ *Store, e *ErrFS, _ *pickyFS) { e.SetNoSpace(true) }, want: "snapshot write"},
		{name: "snapshot short write", arm: pick("short", snapTmp), want: "snapshot write"},
		{name: "snapshot fsync", arm: pick("sync", snapTmp), want: "snapshot fsync"},
		{name: "snapshot close", arm: pick("close", snapTmp), want: "snapshot close"},
		{name: "snapshot publish", arm: func(_ *Store, e *ErrFS, _ *pickyFS) { e.FailNextRename() }, want: "snapshot publish"},
		{name: "wal read", arm: pick("readfile", "fleet.wal"), want: "compact read"},
		{name: "compact temp", arm: pick("open", ".compact.tmp"), want: "compact temp"},
		{name: "compact write", arm: pick("write", ".compact.tmp"), want: "compact write"},
		{name: "compact short write", arm: pick("short", ".compact.tmp"), want: "short write"},
		{name: "compact fsync", arm: pick("sync", ".compact.tmp"), want: "compact fsync"},
		{name: "compact close", arm: pick("close", ".compact.tmp"), want: "compact close"},
		{name: "swap close", arm: pick("close", "fleet.wal"), want: "compact swap", poisoned: true},
		{name: "swap rename", arm: pick("rename", ".compact.tmp"), want: "compact swap"},
		{name: "reopen", arm: pick("open", "fleet.wal"), want: "compact reopen", poisoned: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.wal")
			efs := NewErrFS(nil)
			pfs := &pickyFS{FS: efs}
			st, _, err := OpenStore(path, StoreConfig{FS: pfs})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []string{"one", "two"} {
				if err := st.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if tc.arm != nil {
				tc.arm(st, efs, pfs)
			}
			snap := tc.snapshot
			if snap == nil {
				snap = []byte("snapshot")
			}
			err = st.Compact(snap, 2, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compact returned %v, want an error naming %q", err, tc.want)
			}
			efs.Heal()
			pfs.op = ""
			if poisoned := st.Append([]byte("after")) != nil; poisoned != tc.poisoned {
				t.Fatalf("store poisoned=%v after the failure, want %v", poisoned, tc.poisoned)
			}
			st.Close()
			_, rec, err := OpenStore(path, StoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Snapshot == nil && len(rec.Records) < 2 {
				t.Fatalf("recovery after %s holds %d records and no snapshot", tc.name, len(rec.Records))
			}
		})
	}
}

func pick(op, suffix string) func(*Store, *ErrFS, *pickyFS) {
	return func(_ *Store, _ *ErrFS, p *pickyFS) { p.op, p.suffix = op, suffix }
}

// TestCompactPruneFailureIsHarmless: pruning old generations is best
// effort, so a directory that cannot be listed after the swap does not fail
// the compaction.
func TestCompactPruneFailureIsHarmless(t *testing.T) {
	dir := t.TempDir()
	pfs := &pickyFS{FS: OS}
	st, _, err := OpenStore(filepath.Join(dir, "fleet.wal"), StoreConfig{FS: pfs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pfs.op, pfs.suffix = "readdir", dir
	if err := st.Compact([]byte("snapshot"), 1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreErrorPaths fails each step of opening a store: listing the
// directory, reading a snapshot generation (skipped, not fatal), and opening,
// reading, truncating and positioning the WAL.
func TestOpenStoreErrorPaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.wal")
	st, _, err := OpenStore(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact([]byte("snapshot"), 1, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := appendRaw(path, []byte{0xde, 0xad}); err != nil { // a torn tail
		t.Fatal(err)
	}
	for _, tc := range []struct{ op, suffix, want string }{
		{"readdir", dir, "list snapshots"},
		{"open", "fleet.wal", "journal: open"},
		{"read", "fleet.wal", "journal: read"},
		{"truncate", "fleet.wal", "truncate corrupt tail"},
		{"seek", "fleet.wal", "journal: seek"},
	} {
		_, _, err := OpenStore(path, StoreConfig{FS: &pickyFS{FS: OS, op: tc.op, suffix: tc.suffix}})
		if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: OpenStore returned %v, want an injected fault naming %q", tc.op, tc.suffix, err, tc.want)
		}
	}
	// an unreadable generation is skipped like a corrupt one
	st, rec, err := OpenStore(path, StoreConfig{FS: &pickyFS{FS: OS, op: "readfile", suffix: ".snap-0000000000000001"}})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if rec.SnapshotsSkipped != 1 || rec.Snapshot != nil {
		t.Fatalf("unreadable generation: skipped %d, snapshot %q", rec.SnapshotsSkipped, rec.Snapshot)
	}
	// a directory that does not exist lists as empty; the WAL cannot be made
	if _, _, err := OpenStore(filepath.Join(dir, "missing", "fleet.wal"), StoreConfig{}); err == nil || !strings.Contains(err.Error(), "journal: open") {
		t.Fatalf("store in a missing directory: %v", err)
	}
}

func appendRaw(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestWriterShortWriteAndClose: a write that lands short without an error
// still makes the writer fail-stop, Close of a failed writer reports the
// failure, a failed fsync fails Close, and a second Close is a no-op.
func TestWriterShortWriteAndClose(t *testing.T) {
	dir := t.TempDir()
	pfs := &pickyFS{FS: OS, op: "short", suffix: "a.wal"}
	w, _, _, err := OpenAppendFS(pfs, filepath.Join(dir, "a.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("rec")); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("short write returned %v, want ErrWriterFailed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("Close of a failed writer returned %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close returned %v", err)
	}

	pfs = &pickyFS{FS: OS, op: "sync", suffix: "b.wal"}
	w, _, _, err = OpenAppendFS(pfs, filepath.Join(dir, "b.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close with a failing fsync returned %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync of a closed writer returned %v", err)
	}
}

// TestErrFSCrashKillsEveryOperation: after a crash-at-byte tear, every
// operation of the filesystem and of its open files fails with ErrCrashed
// until Heal. (A short write armed past the end of a write first lands it
// whole, with an error.)
func TestErrFSCrashKillsEveryOperation(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	if _, err := efs.OpenFile(filepath.Join(dir, "missing", "f"), os.O_RDWR|os.O_CREATE, 0o644); err == nil {
		t.Fatal("opened a file in a missing directory")
	}
	f, err := efs.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	efs.ShortWriteNext(100) // longer than the write: the whole write lands, and still fails
	if n, err := f.Write([]byte("abc")); n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write armed past the end: %d, %v", n, err)
	}
	efs.CrashAtByte(0)
	if n, err := f.Write([]byte("abc")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crashing write: %d, %v", n, err)
	}
	name := filepath.Join(dir, "f")
	for op, err := range map[string]error{
		"open":     func() error { _, err := efs.OpenFile(name, os.O_RDONLY, 0); return err }(),
		"readfile": func() error { _, err := efs.ReadFile(name); return err }(),
		"rename":   efs.Rename(name, name+"2"),
		"remove":   efs.Remove(name),
		"readdir":  func() error { _, err := efs.ReadDirNames(dir); return err }(),
		"write":    func() error { _, err := f.Write([]byte("x")); return err }(),
		"sync":     f.Sync(),
		"truncate": f.Truncate(0),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after the crash returned %v, want ErrCrashed", op, err)
		}
	}
	efs.Heal()
	if _, err := efs.ReadFile(name); err != nil {
		t.Fatalf("healed filesystem: %v", err)
	}
}

func TestSplitAndJoinPath(t *testing.T) {
	sep := string(os.PathSeparator)
	for _, tc := range []struct{ path, dir, base string }{
		{"fleet.wal", ".", "fleet.wal"},
		{sep + "fleet.wal", sep, "fleet.wal"},
		{"d" + sep + "fleet.wal", "d", "fleet.wal"},
	} {
		dir, base := splitPath(tc.path)
		if dir != tc.dir || base != tc.base {
			t.Errorf("splitPath(%q) = %q, %q", tc.path, dir, base)
		}
		if got := joinPath(dir, base); got != tc.path {
			t.Errorf("joinPath(%q, %q) = %q, want %q", dir, base, got, tc.path)
		}
	}
	if _, _, _, err := DecodeSnapshot(append([]byte("XXXX"), EncodeSnapshot(1, 1, []byte("p"))[4:]...)); err == nil {
		t.Fatal("snapshot with a bad magic decoded")
	}
}
