package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fragalloc/internal/model"
)

// FuzzApplyUpdate decodes arbitrary bytes as a POST /v1/update body does
// and applies the update, through the pure applyUpdate, to a small workload
// and a two-scenario set at K 3. Properties: nothing panics; the input set is
// never mutated; an accepted result passes ScenarioSet.Validate and has
// K ≥ 1; anything else is an error.
func FuzzApplyUpdate(f *testing.F) {
	w := updateWorkload(f)
	ss := model.DefaultScenario(w)
	second := append([]float64(nil), ss.Frequencies[0]...)
	for j := range second {
		second[j] *= float64(j%3) + 0.5
	}
	ss.Frequencies = append(ss.Frequencies, second)
	if err := ss.Validate(w); err != nil {
		f.Fatal(err)
	}
	before := ss.Clone()
	for _, seed := range []string{
		`{}`,
		`{"freq_deltas":[{"scenario":0,"query":3,"delta":0.5},{"scenario":1,"query":7,"delta":-4}]}`,
		`{"observe":[[0,1,2,3,4,5,6,7]],"set_k":5}`,
		`{"observe":[[0,0,0,0,0,0,0,0]]}`,
		`{"freq_deltas":[{"scenario":2,"query":0,"delta":1}]}`,
		`{"freq_deltas":[{"scenario":0,"query":1,"delta":1e308},{"scenario":0,"query":1,"delta":1e308}]}`,
		`{"set_k":-2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var u Update
		if json.NewDecoder(bytes.NewReader(body)).Decode(&u) != nil {
			return
		}
		next, k, err := applyUpdate(w, ss, 3, u)
		if !reflect.DeepEqual(ss, before) {
			t.Fatalf("applyUpdate(%s) mutated the input scenario set", body)
		}
		if err != nil {
			return
		}
		if next == nil {
			t.Fatalf("applyUpdate(%s) accepted with no scenario set", body)
		}
		if err := next.Validate(w); err != nil {
			t.Fatalf("applyUpdate(%s) accepted a set that fails Validate: %v", body, err)
		}
		if k < 1 {
			t.Fatalf("applyUpdate(%s) accepted K %d", body, k)
		}
	})
}
