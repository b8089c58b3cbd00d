package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the root of every fault ErrFS produces. Fault-injection
// tests and the crash-soak gate match it with errors.Is to prove the failure
// they scheduled is the failure that surfaced — any other error escaping the
// durable-state layer under injection is a bug, not a disk fault.
var ErrInjected = errors.New("journal: injected disk fault")

// ErrCrashed is returned by every operation after an ErrFS crash point has
// fired: the simulated process is dead and nothing more reaches the disk.
// It wraps ErrInjected.
var ErrCrashed = fmt.Errorf("%w: crashed", ErrInjected)

// ErrFS wraps a base FS and injects scheduled faults. It models the failure
// classes a WAL meets in the field:
//
//   - short write: a Write persists only a prefix and errors — the tail of
//     the frame never reached the disk, the file offset is untrustworthy.
//   - fsync failure: data may or may not be durable; the caller must treat
//     the writer as poisoned (fsyncgate semantics).
//   - ENOSPC: the disk is full; every subsequent write keeps failing.
//   - torn rename: the atomic-publish step of a snapshot fails, leaving the
//     temp file behind.
//   - crash at byte N: after N total bytes have been written through the FS
//     the "process" dies mid-write — the write tears at the boundary and
//     every later operation returns ErrCrashed.
//
// All methods are safe for concurrent use (the fleet's tick workers never
// touch the journal concurrently, but race tests do).
type ErrFS struct {
	base FS

	mu         sync.Mutex
	shortNext  int  // >0: next write lands only this many bytes, then errors
	shortArmed bool // distinguishes "short 0 bytes" from "not armed"
	syncFails  int  // number of upcoming Syncs to fail
	renameFail bool // next Rename fails (temp file left behind)
	noSpace    bool // every write fails with an ENOSPC-flavoured fault
	crashAt    int64
	crashArmed bool
	crashed    bool
	written    int64 // cumulative bytes written through this FS
}

// NewErrFS wraps base (nil → OS) with a clean fault plan.
func NewErrFS(base FS) *ErrFS {
	if base == nil {
		base = OS
	}
	return &ErrFS{base: base}
}

// ShortWriteNext arms a one-shot short write: the next Write persists only n
// bytes of its payload and returns an error.
func (e *ErrFS) ShortWriteNext(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shortNext, e.shortArmed = n, true
}

// FailNextSync arms n upcoming Sync calls to fail.
func (e *ErrFS) FailNextSync(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncFails = n
}

// FailNextRename arms a one-shot rename failure: the rename does not happen
// and the source (temp) file is left behind — a torn publish.
func (e *ErrFS) FailNextRename() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.renameFail = true
}

// SetNoSpace turns the persistent disk-full condition on or off.
func (e *ErrFS) SetNoSpace(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.noSpace = on
}

// CrashAtByte schedules a crash once total bytes written through the FS
// reach n: the write in flight tears at the boundary and all later
// operations fail with ErrCrashed. Calling it again re-arms a new crash
// point (and clears a fired one — "the process restarted").
func (e *ErrFS) CrashAtByte(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashAt, e.crashArmed, e.crashed = n, true, false
}

// Heal clears every armed fault and a fired crash. The byte counter keeps
// running — a healed FS is the same disk, recovered.
func (e *ErrFS) Heal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shortArmed, e.shortNext = false, 0
	e.syncFails = 0
	e.renameFail = false
	e.noSpace = false
	e.crashArmed, e.crashed = false, false
}

// BytesWritten reports the cumulative bytes written through the FS.
func (e *ErrFS) BytesWritten() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.written
}

func (e *ErrFS) dead() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	return nil
}

func (e *ErrFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := e.dead(); err != nil {
		return nil, err
	}
	f, err := e.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f, name: name}, nil
}

func (e *ErrFS) ReadFile(name string) ([]byte, error) {
	if err := e.dead(); err != nil {
		return nil, err
	}
	return e.base.ReadFile(name)
}

func (e *ErrFS) Rename(oldpath, newpath string) error {
	if err := e.dead(); err != nil {
		return err
	}
	e.mu.Lock()
	if e.renameFail {
		e.renameFail = false
		e.mu.Unlock()
		return fmt.Errorf("%w: torn rename %s → %s", ErrInjected, oldpath, newpath)
	}
	e.mu.Unlock()
	return e.base.Rename(oldpath, newpath)
}

func (e *ErrFS) Remove(name string) error {
	if err := e.dead(); err != nil {
		return err
	}
	return e.base.Remove(name)
}

func (e *ErrFS) ReadDirNames(dir string) ([]string, error) {
	if err := e.dead(); err != nil {
		return nil, err
	}
	return e.base.ReadDirNames(dir)
}

// errFile routes a File's operations back through its ErrFS's fault plan.
type errFile struct {
	fs   *ErrFS
	f    File
	name string
}

func (f *errFile) Read(p []byte) (int, error)           { return f.f.Read(p) }
func (f *errFile) Seek(off int64, w int) (int64, error) { return f.f.Seek(off, w) }
func (f *errFile) Truncate(size int64) error {
	if err := f.fs.dead(); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *errFile) Write(p []byte) (int, error) {
	e := f.fs
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return 0, ErrCrashed
	}
	// crash-at-byte: the frame tears exactly at the scheduled boundary
	if e.crashArmed && e.written+int64(len(p)) >= e.crashAt {
		room := e.crashAt - e.written
		if room < 0 {
			room = 0
		}
		if room > int64(len(p)) {
			room = int64(len(p))
		}
		e.crashed, e.crashArmed = true, false
		e.written += room
		e.mu.Unlock()
		if room > 0 {
			f.f.Write(p[:room]) // best effort: the torn prefix may land
		}
		return int(room), fmt.Errorf("%w: crash at byte %d", ErrInjected, e.crashAt)
	}
	if e.shortArmed {
		n := e.shortNext
		if n > len(p) {
			n = len(p)
		}
		e.shortArmed, e.shortNext = false, 0
		e.written += int64(n)
		e.mu.Unlock()
		if n > 0 {
			f.f.Write(p[:n])
		}
		return n, fmt.Errorf("%w: short write %d of %d bytes to %s", ErrInjected, n, len(p), f.name)
	}
	if e.noSpace {
		e.mu.Unlock()
		return 0, fmt.Errorf("%w: no space left on device (%s)", ErrInjected, f.name)
	}
	e.mu.Unlock()
	n, err := f.f.Write(p)
	e.mu.Lock()
	e.written += int64(n)
	e.mu.Unlock()
	return n, err
}

func (f *errFile) Sync() error {
	e := f.fs
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	if e.syncFails > 0 {
		e.syncFails--
		e.mu.Unlock()
		return fmt.Errorf("%w: fsync failed on %s", ErrInjected, f.name)
	}
	e.mu.Unlock()
	return f.f.Sync()
}

func (f *errFile) Close() error {
	// closing is allowed even after a crash: the kernel closes descriptors
	// of dead processes too
	return f.f.Close()
}
