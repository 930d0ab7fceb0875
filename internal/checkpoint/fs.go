package checkpoint

import (
	"io/fs"
	"os"
)

// FS is every file-system call the package makes: the Store's generations,
// the Lease file and the Watcher's tail all go through one, and so does the
// allocation service's removal of its solve journals. OS is the real one. A
// test hands a faulty FS to OpenFS, AcquireLease or NewWatcher to crash, tear
// or fail a write at a chosen event (internal/faultinject).
type FS interface {
	MkdirAll(dir string, perm fs.FileMode) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// OpenFile opens a file for writing; writeDurably is its one caller.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(from, to string) error
	Remove(name string) error
	RemoveAll(path string) error
	// SyncDir fsyncs a directory, so that a rename or creation in it is
	// durable.
	SyncDir(dir string) error
}

// File is a file open for writing.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)        { return os.ReadFile(name) }
func (osFS) Rename(from, to string) error                { return os.Rename(from, to) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                 { return os.RemoveAll(path) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
