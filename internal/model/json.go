package model

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Every file written here — workloads, scenario sets, allocations, and the
// benchmark's results and trace files — is compact JSON, one line written
// in one pass: `jq . file` prints one indented. Every loader reads compact
// and indented files alike.

// WriteJSON writes v to w as compact JSON ended by a newline.
func WriteJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// SaveJSON writes v as compact JSON to the named file.
func SaveJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, v); err != nil {
		f.Close()
		return fmt.Errorf("model: encoding %s: %w", path, err)
	}
	return f.Close()
}

// LoadWorkload reads a workload from a JSON file and validates it.
func LoadWorkload(path string) (*Workload, error) {
	var w Workload
	if err := loadJSON(path, &w); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	return &w, nil
}

// LoadAllocation reads an allocation from a JSON file. Structural validation
// against a workload is the caller's responsibility (via Validate).
func LoadAllocation(path string) (*Allocation, error) {
	var a Allocation
	if err := loadJSON(path, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// LoadScenarioSet reads a scenario set from a JSON file.
func LoadScenarioSet(path string) (*ScenarioSet, error) {
	var ss ScenarioSet
	if err := loadJSON(path, &ss); err != nil {
		return nil, err
	}
	return &ss, nil
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("model: decoding %s: %w", path, err)
	}
	return nil
}
