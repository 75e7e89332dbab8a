// Package durable owns every durable-file primitive the campaign service
// is built on: the atomic replace (tmp+fsync+rename), the append, the
// flock sidecar, and the names those leave on disk. The journal, the
// lease layer and the job store all write through it, and the chaos
// plane (internal/chaos) wraps its FS to inject faults, so there is one
// implementation of each primitive and one seam to fault.
//
// The on-disk naming is part of the contract, because the store scrubber
// (api.Store.Fsck) must recognize crash debris by name alone:
//
//   - ".<name>.tmp-<random>" is a temp file of an atomic replace of
//     <name>. A live writer holds one for microseconds; one found by an
//     offline scan was never renamed, so it was never committed.
//   - "<name>.lock" is the flock sidecar guarding <name>. It is never
//     removed by a holder: removing it would race a concurrent locker
//     onto a dead inode.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// File is the slice of *os.File that readers and appenders use.
type File interface {
	io.Reader
	io.Writer
	// Sync forces written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem seam under the journal and the lease layer. OS is
// the real filesystem; the chaos plane implements FS over it to inject
// torn writes, failed fsyncs, read corruption and kill-points.
type FS interface {
	// ReadFile returns the whole file.
	ReadFile(name string) ([]byte, error)
	// WriteFileAtomic replaces name with data via tmp+fsync+rename: after
	// any crash the file holds either its old contents or the complete
	// new ones, never a prefix.
	WriteFileAtomic(name string, data []byte) error
	// AppendFile appends data to name, creating it if needed.
	AppendFile(name string, data []byte) error
	// Stat reports on name.
	Stat(name string) (os.FileInfo, error)
	// OpenRead opens name for reading.
	OpenRead(name string) (File, error)
	// OpenAppend opens name for appending, creating it if needed.
	OpenAppend(name string) (File, error)
	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error
	// Lock takes a non-blocking exclusive flock on name's sidecar
	// (LockPath) and returns the release function. A sidecar held by a
	// live holder is an error wrapping ErrLocked.
	Lock(name string) (release func() error, err error)
}

// ErrLocked reports a flock that could not be taken: for a non-blocking
// Lock, the sidecar is held by a live holder.
var ErrLocked = errors.New("durable: lock held")

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error)           { return os.ReadFile(name) }
func (osFS) WriteFileAtomic(name string, data []byte) error { return WriteFileAtomic(name, data) }
func (osFS) AppendFile(name string, data []byte) error      { return Append(osFS{}, name, data) }
func (osFS) Stat(name string) (os.FileInfo, error)          { return os.Stat(name) }
func (osFS) OpenRead(name string) (File, error)             { return os.Open(name) }
func (osFS) Truncate(name string, size int64) error         { return os.Truncate(name, size) }
func (osFS) Lock(name string) (func() error, error)         { return Lock(name, false) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// WriteFileAtomic is the real filesystem's atomic replace: data goes to a
// temp file beside name, is fsynced, and is renamed over name. The temp
// file is removed on any failure before the rename.
func WriteFileAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), tempPattern(name))
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), name)
}

// LeaveTemp writes data to a fresh temp file beside name and leaves it
// there, neither synced nor renamed: what a WriteFileAtomic leaves when
// its process dies mid-transaction. The chaos plane's torn atomic writes
// use it, so their debris carries the name IsTemp recognizes.
func LeaveTemp(name string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), tempPattern(name))
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes data to name through a handle from fsys.OpenAppend and
// closes it: one open, one write, one close.
func Append(fsys FS, name string, data []byte) error {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Lock takes an exclusive flock on name's sidecar, creating the sidecar
// if needed, and returns the release function. Without wait it never
// blocks: a held sidecar fails at once with ErrLocked (journal ownership,
// lease claims). With wait it blocks until the holder releases (the job
// store's ID counter, a microsecond transaction every caller must get an
// answer from). The kernel drops a flock when its descriptor closes for
// any reason, SIGKILL included, so a dead holder never wedges the next.
func Lock(name string, wait bool) (func() error, error) {
	path := LockPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open lock file %s: %w", path, err)
	}
	how := syscall.LOCK_EX
	if !wait {
		how |= syscall.LOCK_NB
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: %w", ErrLocked, path, err)
	}
	return f.Close, nil
}

// LockPath names the flock sidecar guarding name.
func LockPath(name string) string { return name + ".lock" }

// tempInfix marks the temp files of an atomic replace.
const tempInfix = ".tmp-"

// tempPattern is the os.CreateTemp pattern for name's temp files.
func tempPattern(name string) string { return "." + filepath.Base(name) + tempInfix }

// IsTemp reports whether a directory entry's base name is the temp file
// of an atomic replace (WriteFileAtomic, LeaveTemp).
func IsTemp(base string) bool {
	return strings.HasPrefix(base, ".") && strings.Contains(base, tempInfix)
}
