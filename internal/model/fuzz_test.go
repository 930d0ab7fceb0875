package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// The model decoders' fuzz targets. Each decodes arbitrary bytes as the
// loaders do (json.Unmarshal, then Validate) and checks two properties:
// nothing panics, and a value that validates re-encodes through WriteJSON
// as one compact line that decodes to the same value, float bits included.
// The seed corpus under testdata/fuzz holds one compact and one indented
// file of each type; `go test` runs the seeds, and
// `go test -fuzz FuzzWorkloadJSON ./internal/model` searches further.

func FuzzWorkloadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Workload
		if json.Unmarshal(data, &w) != nil || w.Validate() != nil {
			return
		}
		var back Workload
		reencode(t, &w, &back)
		if err := back.Validate(); err != nil {
			t.Fatalf("re-encoded workload no longer validates: %v", err)
		}
		if back.Digest() != w.Digest() || !reflect.DeepEqual(&back, &w) {
			t.Fatalf("workload changed in a round trip:\n%+v\n%+v", w, back)
		}
	})
}

func FuzzScenarioSetJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ss ScenarioSet
		if json.Unmarshal(data, &ss) != nil || len(ss.Frequencies) == 0 {
			return
		}
		// A scenario set validates against a workload: one with a query of
		// cost 1 per frequency of the first scenario.
		w := &Workload{Fragments: []Fragment{{ID: 0, Size: 1}}}
		for j := range ss.Frequencies[0] {
			w.Queries = append(w.Queries, Query{ID: j, Fragments: []int{0}, Cost: 1, Frequency: 1})
		}
		if ss.Validate(w) != nil {
			return
		}
		var back ScenarioSet
		reencode(t, &ss, &back)
		if err := back.Validate(w); err != nil {
			t.Fatalf("re-encoded scenario set no longer validates: %v", err)
		}
		if back.Digest() != ss.Digest() || !reflect.DeepEqual(&back, &ss) {
			t.Fatalf("scenario set changed in a round trip:\n%+v\n%+v", ss, back)
		}
	})
}

// reencode writes v with WriteJSON, checks that the output is one compact
// line, and decodes it into back.
func reencode(t *testing.T, v, back any) {
	t.Helper()
	var out bytes.Buffer
	if err := WriteJSON(&out, v); err != nil {
		t.Fatalf("a value that validates does not encode: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, out.Bytes()); err != nil {
		t.Fatalf("WriteJSON wrote invalid JSON %q: %v", out.Bytes(), err)
	}
	if compact.WriteByte('\n'); !bytes.Equal(compact.Bytes(), out.Bytes()) {
		t.Fatalf("WriteJSON wrote %q, want the compact %q", out.Bytes(), compact.Bytes())
	}
	if err := json.Unmarshal(out.Bytes(), back); err != nil {
		t.Fatalf("WriteJSON's output does not decode: %v", err)
	}
}
