package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Graceful is the commands' two-signal contract. It returns a context that
// the first SIGINT or SIGTERM cancels, so the solvers wind down with their
// best incumbents; a second signal — the escape hatch when a long LP has not
// yet reached its cancellation poll — prints "<prog>: second signal, exiting
// immediately" to stderr and exits the process with ExitError. Signal
// notification is registered before Graceful returns, so a signal delivered
// any time after the call is never fatal by default disposition. The
// returned CancelFunc releases the context (defer it in main); the signal
// watcher itself lives for the remaining process lifetime, which is exactly
// the window the second-signal escape hatch must cover.
func Graceful(prog string) (context.Context, context.CancelFunc) {
	return graceful(prog, ExitError, os.Stderr, os.Exit)
}

// graceful is the testable seam: tests substitute stderr and exit to drive
// the second-signal path in-process.
func graceful(prog string, code int, stderr io.Writer, exit func(int)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
		<-sigs
		fmt.Fprintf(stderr, "%s: second signal, exiting immediately\n", prog)
		exit(code)
	}()
	return ctx, cancel
}
