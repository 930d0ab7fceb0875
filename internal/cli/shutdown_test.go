package cli

import (
	"bytes"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestShutdownFirstSignalCancels sends this process a real SIGINT and
// requires the context to cancel: the graceful rung of the contract.
func TestShutdownFirstSignalCancels(t *testing.T) {
	var buf syncBuffer
	exited := make(chan int, 1)
	ctx, cancel := graceful("shutdowntest", 7, &buf, func(code int) { exited <- code })
	defer cancel()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled after first SIGINT")
	}
	select {
	case code := <-exited:
		t.Fatalf("first signal must not exit, got exit(%d)", code)
	default:
	}
}

// TestShutdownSecondSignalExits drives both rungs: the first signal cancels,
// the second exits with the configured code and the prefixed message.
func TestShutdownSecondSignalExits(t *testing.T) {
	var buf syncBuffer
	exited := make(chan int, 1)
	ctx, cancel := graceful("shutdowntest", 42, &buf, func(code int) { exited <- code })
	defer cancel()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled after first SIGINT")
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case code := <-exited:
		if code != 42 {
			t.Fatalf("exit code = %d, want 42", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not exit")
	}
	if got := buf.String(); !strings.Contains(got, "shutdowntest: second signal, exiting immediately") {
		t.Fatalf("stderr = %q, want the second-signal message", got)
	}
}

// syncBuffer makes the stderr substitute race-safe: the watcher goroutine
// writes it while the test goroutine reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
