package segment

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// FS abstracts every file-system operation the segment writer, loader
// and directory manager perform, so a fault injector (internal/fault)
// can interpose short writes, ENOSPC, fsync failures, mmap failure,
// read-time bit flips and simulated crashes under the real code paths.
// Production code uses OSFS; nothing in this package ever touches the
// os package directly except through it.
//
// Crash is the named crash-point hook: the writer calls it at every
// step of the tmp+fsync+rename+dirsync path (see CrashPoints), and an
// injector armed for that point returns a non-nil error — emulating the
// process dying there, with everything already flushed as the torn
// on-disk state recovery will see. OSFS.Crash always returns nil.
type FS interface {
	// OpenFile opens a file like os.OpenFile (os.O_RDONLY for loads).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(name string, perm fs.FileMode) error
	// SyncDir fsyncs a directory so a just-renamed entry is durable.
	// Best effort: some platforms cannot open or sync directories.
	SyncDir(name string) error
	// Mmap maps size bytes of f read-only, or reports that mapping is
	// unavailable (the loader then falls back to the plain-read path).
	Mmap(f File, size int64) ([]byte, error)
	// Munmap releases a mapping returned by Mmap.
	Munmap(b []byte) error
	// Crash is the named crash-point hook; non-nil aborts the step.
	Crash(point string) error
}

// File is the per-file surface the segment code needs.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Stat() (fs.FileInfo, error)
	Sync() error
}

// Named crash points of the segment write path, in execution order.
// Each marks "the process dies here": everything before the point is on
// disk, nothing after it is. proto's store model test crashes an upload
// at every one and requires recovery to serve bit-identical results.
const (
	CrashWriteTmpCreate = "segment.write.tmp-create" // before the tmp file exists
	CrashWriteHeader    = "segment.write.header"     // header+name written, no planes
	CrashWritePlane0    = "segment.write.plane0"     // C0 plane written, C1 missing
	CrashWritePlane1    = "segment.write.plane1"     // both planes written, no footer
	CrashWriteFooter    = "segment.write.footer"     // complete bytes, not fsynced
	CrashWriteSync      = "segment.write.sync"       // before fsync
	CrashWriteClose     = "segment.write.close"      // fsynced, before close
	CrashWriteRename    = "segment.write.rename"     // before the rename: tmp only
	CrashWriteDirsync   = "segment.write.dirsync"    // renamed, directory not fsynced
)

// CrashPoints lists every named crash point in execution order — what
// proto's store model test must cover, fresh and replacing.
func CrashPoints() []string {
	return []string{
		CrashWriteTmpCreate,
		CrashWriteHeader,
		CrashWritePlane0,
		CrashWritePlane1,
		CrashWriteFooter,
		CrashWriteSync,
		CrashWriteClose,
		CrashWriteRename,
		CrashWriteDirsync,
	}
}

// OSFS is the real filesystem: os calls, platform mmap, no faults.
type OSFS struct{}

// OpenFile opens a real file.
func (OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename renames a real file.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes a real file.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// ReadDir lists a real directory.
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll creates a real directory tree.
func (OSFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

// SyncDir fsyncs a real directory; best effort.
func (OSFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return nil // advisory durability barrier
	}
	d.Sync() //nolint:errcheck // advisory durability barrier
	d.Close()
	return nil
}

// Mmap maps the file where the platform supports it; the loader treats
// any error as "copy instead".
func (OSFS) Mmap(f File, size int64) ([]byte, error) {
	osf, ok := f.(*os.File)
	if !ok || !mmapSupported {
		return nil, errors.ErrUnsupported
	}
	return mmapFile(osf, size)
}

// Munmap releases a platform mapping.
func (OSFS) Munmap(b []byte) error { return munmapFile(b) }

// Crash never fires on the real filesystem.
func (OSFS) Crash(string) error { return nil }
