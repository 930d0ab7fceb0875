// Package ed is golden-test input for the errdrop analyzer: the general
// bare-statement rule and its conventional exemptions. The strict rule's
// cases live in internal/checkpoint below, the one package it covers.
package ed

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
)

func work() error { return errors.New("x") }

// --- general rule ---------------------------------------------------------

func bareDrop() {
	work() // want "error result of work is discarded"
}

func handledOK() error {
	return work()
}

func fmtExemptOK() {
	fmt.Println("status") // print family: conventionally unchecked
}

func stdoutExemptOK(buf []byte) {
	os.Stdout.Write(buf) // stdout writes share the print convention
}

func bufferExemptOK(b *bytes.Buffer) {
	b.WriteString("x") // documented never to fail
}

func hashExemptOK(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data) // hash.Hash.Write is documented never to fail
	return h.Sum64()
}

func closeBeforeErrorReturnOK(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		f.Close() // primary error supersedes; the temp file is abandoned
		return fmt.Errorf("ed: %w", err)
	}
	return f.Close()
}

func closeNotBeforeReturn(f *os.File) {
	f.Close() // want "error result of f.Close is discarded"
}

// Outside internal/checkpoint an explicit discard is a visible decision,
// not a finding.
func syncDropOutsideCheckpointOK(f *os.File) {
	_ = f.Sync()
	defer f.Close()
}
