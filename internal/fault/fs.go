package fault

import (
	"errors"
	"fmt"
	"io/fs"

	"ciphermatch/internal/segment"
)

// Typed injected-fault errors. Hardened code must treat them like their
// real counterparts (ENOSPC, EIO, a dead process); tests assert they
// surface as the storage layer's typed errors, never as wrong answers.
var (
	// ErrNoSpace is the injected disk-full write failure.
	ErrNoSpace = errors.New("fault: injected disk full")
	// ErrSyncFailed is the injected fsync failure.
	ErrSyncFailed = errors.New("fault: injected fsync failure")
	// ErrCrashed means the simulated process died at a crash point:
	// every later operation on the same FS fails, so nothing "after the
	// crash" can reach disk. Build a fresh FS to model the restart.
	ErrCrashed = errors.New("fault: simulated crash")
)

// FS wraps a segment.FS with the injector's filesystem faults. All FS
// values derived from one Injector share its counters and crash state.
type FS struct {
	inner segment.FS
	inj   *Injector
}

var _ segment.FS = (*FS)(nil)

// FS wraps inner (usually segment.OSFS{}) with the injector's faults.
func (inj *Injector) FS(inner segment.FS) *FS {
	return &FS{inner: inner, inj: inj}
}

func (inj *Injector) dead() error {
	if inj.crashed.Load() {
		return ErrCrashed
	}
	return nil
}

// OpenFile opens through the inner FS, wrapping the file with write,
// sync and read faults.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (segment.File, error) {
	if err := f.inj.dead(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{inner: inner, inj: f.inj}, nil
}

// Rename delegates unless crashed.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.inj.dead(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove delegates unless crashed — so a simulated crash preserves the
// torn temporary file a real crash would leave behind.
func (f *FS) Remove(name string) error {
	if err := f.inj.dead(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadDir delegates unless crashed.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.inj.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// MkdirAll delegates unless crashed.
func (f *FS) MkdirAll(name string, perm fs.FileMode) error {
	if err := f.inj.dead(); err != nil {
		return err
	}
	return f.inner.MkdirAll(name, perm)
}

// SyncDir delegates unless crashed.
func (f *FS) SyncDir(name string) error {
	if err := f.inj.dead(); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// Mmap fails when configured to (MmapFail, or bit flips are armed —
// flips are injected in ReadAt, so loads must take the plain-read
// path for them to be reachable); otherwise it maps through the inner
// FS on the unwrapped file.
func (f *FS) Mmap(file_ segment.File, size int64) ([]byte, error) {
	if err := f.inj.dead(); err != nil {
		return nil, err
	}
	if f.inj.cfg.MmapFail {
		f.inj.nMmapFail.inc()
		return nil, fmt.Errorf("fault: injected mmap failure: %w", errors.ErrUnsupported)
	}
	if f.inj.cfg.BitFlipEvery > 0 {
		return nil, fmt.Errorf("fault: mmap disabled while bit flips armed: %w", errors.ErrUnsupported)
	}
	if w, ok := file_.(*file); ok {
		return f.inner.Mmap(w.inner, size)
	}
	return f.inner.Mmap(file_, size)
}

// Munmap delegates; releasing host resources works even "after death".
func (f *FS) Munmap(b []byte) error { return f.inner.Munmap(b) }

// Crash fires the configured crash point: the step fails and the FS is
// dead from here on. Other points delegate (normally a no-op).
func (f *FS) Crash(point string) error {
	if err := f.inj.dead(); err != nil {
		return err
	}
	if point != "" && point == f.inj.cfg.CrashPoint {
		f.inj.crashed.Store(true)
		f.inj.nCrash.inc()
		return fmt.Errorf("%w at %s", ErrCrashed, point)
	}
	return f.inner.Crash(point)
}

// file wraps a segment.File with write/sync/read faults.
type file struct {
	inner segment.File
	inj   *Injector
}

// Write injects disk-full and short-write failures; a short write
// persists a prefix through the inner file first, leaving the torn
// state a real ENOSPC mid-write leaves.
func (w *file) Write(p []byte) (int, error) {
	if err := w.inj.dead(); err != nil {
		return 0, err
	}
	if w.inj.writeErr.hit() {
		w.inj.nWriteErr.inc()
		return 0, ErrNoSpace
	}
	if w.inj.shortWrite.hit() && len(p) > 1 {
		w.inj.nShortWrite.inc()
		n, err := w.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w after %d of %d bytes", ErrNoSpace, n, len(p))
	}
	return w.inner.Write(p)
}

// ReadAt injects bit flips: every Nth read corrupts one seed-chosen bit
// of the returned buffer — the storage layer's CRCs must catch it.
func (w *file) ReadAt(p []byte, off int64) (int, error) {
	if err := w.inj.dead(); err != nil {
		return 0, err
	}
	n, err := w.inner.ReadAt(p, off)
	if n > 0 && w.inj.bitFlip.hit() {
		k := w.inj.nBitFlip.inc()
		pos := (uint64(k) * w.inj.flipMix) % uint64(n*8)
		p[pos/8] ^= 1 << (pos % 8)
	}
	return n, err
}

// Sync injects fsync failures.
func (w *file) Sync() error {
	if err := w.inj.dead(); err != nil {
		return err
	}
	if w.inj.syncErr.hit() {
		w.inj.nSyncErr.inc()
		return ErrSyncFailed
	}
	return w.inner.Sync()
}

// Stat delegates unless crashed.
func (w *file) Stat() (fs.FileInfo, error) {
	if err := w.inj.dead(); err != nil {
		return nil, err
	}
	return w.inner.Stat()
}

// Close always releases the host file descriptor — a crash kills the
// simulated disk, not the test process's resources.
func (w *file) Close() error {
	err := w.inner.Close()
	if derr := w.inj.dead(); derr != nil {
		return derr
	}
	return err
}
