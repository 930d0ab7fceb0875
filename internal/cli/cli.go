// Package cli is the command line the five commands share: one parse
// helper, one way to fail, one table of exit codes, the two-signal
// shutdown, and the flag groups that more than one command defines alike.
//
// A group registers its flags on a command's FlagSet, and Parse checks
// their values. A flag whose meaning or default differs between commands is
// not in a group: the command defines it.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Exit codes, the same for every command (README.md, "Exit codes"). A
// command returns only the codes its package doc lists.
const (
	ExitOK         = 0 // the command did all it was asked
	ExitError      = 1 // a bad command line, an I/O or solver error, or a second signal
	ExitDegraded   = 2 // complete and feasible, but cut short or degraded to greedy
	ExitInfeasible = 3 // the input admits no feasible allocation
	ExitDemoted    = 4 // another allocd replica took the leader lease
)

// FlagSet is a command's flags and the checks its groups run on them.
type FlagSet struct {
	*flag.FlagSet
	checks []func() error
}

// NewFlagSet returns an empty FlagSet for the command name.
func NewFlagSet(name string) *FlagSet {
	return &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
}

// Parse parses args and then runs the groups' checks. -h prints the usage to
// stderr and exits ExitOK. An unknown or malformed flag, or the first value
// a group refuses, fails the command with one line naming it.
func (fs *FlagSet) Parse(args []string) {
	fs.SetOutput(io.Discard) // a bad flag costs one line, not the usage
	err := fs.FlagSet.Parse(args)
	fs.SetOutput(nil)
	if errors.Is(err, flag.ErrHelp) {
		fs.Usage()
		os.Exit(ExitOK)
	}
	for i := 0; err == nil && i < len(fs.checks); i++ {
		err = fs.checks[i]()
	}
	if err != nil {
		Fail(fs.Name(), err)
	}
}

// Fail prints "prog: err" to stderr and exits ExitError.
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(ExitError)
}

// Logf prints one log line to stderr.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
