// Package checkpoint is golden-test input for errdrop's strict rule: it is
// loaded under an import path ending in internal/checkpoint, where explicit
// discards of durability-relevant errors are findings too.
package checkpoint

import (
	"errors"
	"os"
)

func parse(s string) (int, error) { return 0, errors.New(s) }

func flush(f *os.File) error {
	_ = f.Sync() // want "explicitly discarded on a durability path"
	return nil
}

func deferredCloseOnDurabilityPath(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want "deferred f.Close is discarded on a durability path"
	return f.Sync()
}

func discardedRename(from, to string) {
	_ = os.Rename(from, to) // want "error result of os.Rename is explicitly discarded"
}

// Discarding a non-durable error inside the package is the general rule's
// business, not a crash-safety finding: parse has no FS effects.
func nonDurableDropOK(f *os.File, s string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	_, _ = parse(s)
	return nil
}
