package faultinject

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"fragalloc/internal/checkpoint"
)

// An Op is a kind of file-system event: a Write runs from the open of the
// written file (a temp file, or the final name of an in-place write) to the
// directory fsync after it; a Read reads a whole file; a Remove removes one.
type Op string

const (
	Write  Op = "write"
	Read   Op = "read"
	Remove Op = "remove"
)

// An Act is what a Fault does: Kill kills the process once a Write (its data
// durable under its final name) or a Read is complete, or before a Remove.
// Tear writes only the first half of a Write's data, then kills as Kill
// does. EIO fails a Write at its fsync, ENOSPC at its data write, and either
// fails a Read or a Remove outright; the process lives on.
type Act string

const (
	Kill   Act = "kill"
	Tear   Act = "tear"
	EIO    Act = "eio"
	ENOSPC Act = "enospc"
)

// A Fault is Act at the N-th (from 1; 0 is never) event of kind Op whose path
// matches Path, a path.Match pattern over as many trailing path elements as
// it has: "state/gen-*" matches a state journal's generations and temp
// files. Exit kills with os.Exit(137), which runs no deferred function, as
// SIGKILL would; otherwise a kill is panic(ErrKilled).
type Fault struct {
	Op   Op
	Path string
	N    int
	Act  Act
	Exit bool
}

// FS is a checkpoint.FS that passes every call through to the one it wraps,
// counting the events its Fault matches and injecting the Fault. FSs stack;
// each is safe for concurrent use.
type FS struct {
	checkpoint.FS
	fault Fault

	mu    sync.Mutex
	hits  int
	armed string // the directory whose fsync completes the fatal Write
}

// NewFS wraps inner with fault.
func NewFS(inner checkpoint.FS, fault Fault) *FS { return &FS{FS: inner, fault: fault} }

// Hits is the number of events the fault has matched so far.
func (f *FS) Hits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// at counts an event of kind op on name and reports whether the fault fires.
func (f *FS) at(op Op, name string) bool {
	elems := strings.Split(filepath.ToSlash(name), "/")
	k := strings.Count(f.fault.Path, "/") + 1
	if op != f.fault.Op || k > len(elems) {
		return false
	}
	if ok, _ := path.Match(f.fault.Path, strings.Join(elems[len(elems)-k:], "/")); !ok {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits++
	return f.hits == f.fault.N
}

func (f *FS) kill() {
	if f.fault.Exit {
		os.Exit(137)
	}
	panic(ErrKilled)
}

// errnos is what each failing Act fails its event with.
var errnos = map[Act]syscall.Errno{EIO: syscall.EIO, ENOSPC: syscall.ENOSPC}

// OpenFile begins a Write.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (checkpoint.File, error) {
	if !f.at(Write, name) {
		return f.FS.OpenFile(name, flag, perm)
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if errnos[f.fault.Act] == 0 {
		f.mu.Lock()
		f.armed = filepath.Dir(name)
		f.mu.Unlock()
	}
	return &faultyFile{File: file, fs: f, name: name}, nil
}

// SyncDir completes a Write; the fatal one kills here.
func (f *FS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	f.mu.Lock()
	fatal := f.armed == dir
	if fatal {
		f.armed = ""
	}
	f.mu.Unlock()
	if fatal {
		f.kill()
	}
	return err
}

// ReadFile is a Read.
func (f *FS) ReadFile(name string) ([]byte, error) {
	if !f.at(Read, name) {
		return f.FS.ReadFile(name)
	}
	if e := errnos[f.fault.Act]; e != 0 {
		return nil, &fs.PathError{Op: "open", Path: name, Err: e}
	}
	defer f.kill()
	return f.FS.ReadFile(name)
}

// Remove is a Remove.
func (f *FS) Remove(name string) error {
	if !f.at(Remove, name) {
		return f.FS.Remove(name)
	}
	if e := errnos[f.fault.Act]; e != 0 {
		return &fs.PathError{Op: "remove", Path: name, Err: e}
	}
	f.kill()
	return nil
}

// faultyFile is the file of the Write the fault fires at.
type faultyFile struct {
	checkpoint.File
	fs   *FS
	name string
}

func (f *faultyFile) Write(p []byte) (int, error) {
	switch f.fs.fault.Act {
	case Tear:
		if n, err := f.File.Write(p[:len(p)/2]); err != nil {
			return n, err
		}
		return len(p), nil
	case ENOSPC:
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: syscall.ENOSPC}
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.fs.fault.Act == EIO {
		return &fs.PathError{Op: "sync", Path: f.name, Err: syscall.EIO}
	}
	return f.File.Sync()
}
