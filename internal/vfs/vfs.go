// Package vfs is the narrow filesystem seam under the durable store. Every
// path that makes tracking durable — segment spilling, catalog publication,
// recovery, retention, shipping — performs its I/O through the FS interface
// instead of the os package, so the whole storage layer can be exercised
// under injected faults without touching a real disk's failure modes.
//
// Two implementations ship:
//
//   - OS, the default, forwards every call to the os package unchanged. It
//     is a zero-state passthrough — one interface dispatch per filesystem
//     call, nothing on the commit hot path (commits never touch the VFS;
//     only seals, compactions and recovery do).
//   - Faulty (faulty.go) wraps another FS with a deterministic fault
//     injector: fail the Nth matching operation with a chosen error
//     (ENOSPC, EIO, a failed fsync), tear a write partway through, or
//     "crash" — freeze the directory at an arbitrary durable operation,
//     named by its index or by its identity (OpID), so a test can reopen
//     the exact state a power cut at that moment would have left.
//
// The interface is deliberately small: just the calls the store actually
// makes. Callers that need directory listings use ReadDir plus the Glob
// helper rather than a richer walking API.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is one open file: sequential reads and writes, an fsync, a close.
// *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage (fsync).
	Sync() error
	// Name returns the name the file was opened with.
	Name() string
}

// FS is the filesystem surface the durable store runs on. Implementations
// must be safe for concurrent use by multiple goroutines.
type FS interface {
	// Create creates (or truncates) the named file for writing.
	Create(name string) (File, error)
	// CreateTemp creates a new temporary file in dir per os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadDir lists the named directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(name string) error
	// SyncDir fsyncs the named directory, making completed renames within
	// it durable.
	SyncDir(name string) error
	// Stat returns file metadata for the named file.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the default FS: a stateless passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(name string) error                   { return os.MkdirAll(name, 0o777) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile reads the named file whole through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFile writes data to the named file through fsys, creating or
// truncating it. Like os.WriteFile it is NOT atomic and NOT synced — a
// fault partway through leaves a torn file at the final name — so it is
// only for best-effort artifacts whose readers validate on the way in.
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Glob returns the names in dir matching pattern (a filepath.Match pattern
// applied to base names), joined back onto dir, sorted. A missing directory
// is no matches, not an error; only a malformed pattern errs.
func Glob(fsys FS, dir, pattern string) ([]string, error) {
	// Validate the pattern even when the directory is unreadable, matching
	// filepath.Glob's contract.
	if _, err := filepath.Match(pattern, ""); err != nil {
		return nil, err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	var out []string
	for _, e := range entries {
		if ok, _ := filepath.Match(pattern, e.Name()); ok {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
