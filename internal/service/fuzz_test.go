package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fragalloc/internal/model"
)

// updateSeeds are the update bodies both fuzz targets start from.
var updateSeeds = []string{
	`{}`,
	`{"freq_deltas":[{"scenario":0,"query":3,"delta":0.5},{"scenario":1,"query":7,"delta":-4}]}`,
	`{"observe":[[0,1,2,3,4,5,6,7]],"set_k":5}`,
	`{"observe":[[0,0,0,0,0,0,0,0]]}`,
	`{"freq_deltas":[{"scenario":2,"query":0,"delta":1}]}`,
	`{"freq_deltas":[{"scenario":0,"query":1,"delta":1e308},{"scenario":0,"query":1,"delta":1e308}]}`,
	`{"set_k":-2}`,
	`{"set_k":2} trailing`,
	`{"observe":`,
}

// fuzzScenarios is the fuzz targets' scenario set over updateWorkload: its
// default scenario and a second one with other frequencies.
func fuzzScenarios(tb testing.TB, w *model.Workload) *model.ScenarioSet {
	ss := model.DefaultScenario(w)
	second := append([]float64(nil), ss.Frequencies[0]...)
	for j := range second {
		second[j] *= float64(j%3) + 0.5
	}
	ss.Frequencies = append(ss.Frequencies, second)
	if err := ss.Validate(w); err != nil {
		tb.Fatal(err)
	}
	return ss
}

// FuzzApplyUpdate decodes arbitrary bytes as a POST /v1/update body does
// and applies the update, through the pure applyUpdate, to a small workload
// and a two-scenario set at K 3. Properties: nothing panics; the input set is
// never mutated; an accepted result passes ScenarioSet.Validate and has
// K ≥ 1; anything else is an error.
func FuzzApplyUpdate(f *testing.F) {
	w := updateWorkload(f)
	ss := fuzzScenarios(f, w)
	before := ss.Clone()
	for _, seed := range updateSeeds {
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

// FuzzHandleUpdate sends arbitrary bytes as a POST /v1/update body through
// Service.Handler() of a fresh single-node service — no chunk spec, no
// admission gate — over FuzzApplyUpdate's workload and scenario set at K 3.
// Properties: nothing panics; a body that fails to decode gets 400; one that
// decodes gets 202 exactly when applyUpdate accepts the decoded update, and
// 400 otherwise; a body over maxUpdateBytes gets 413 (checked once, on
// maxUpdateBytes bytes of whitespace and then "{}", before fuzzing).
func FuzzHandleUpdate(f *testing.F) {
	w := updateWorkload(f)
	ss := fuzzScenarios(f, w)
	post := func(tb testing.TB, body io.Reader) int {
		svc, err := New(Config{Workload: w, K: 3, Scenarios: ss})
		if err != nil {
			tb.Fatal(err)
		}
		rr := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/update", body))
		return rr.Code
	}
	big := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte(" "), maxUpdateBytes)), strings.NewReader("{}"))
	if code := post(f, big); code != http.StatusRequestEntityTooLarge {
		f.Fatalf("a body of %d bytes got %d, want %d", maxUpdateBytes+2, code, http.StatusRequestEntityTooLarge)
	}
	for _, seed := range updateSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want := http.StatusBadRequest
		var u Update
		if json.NewDecoder(bytes.NewReader(body)).Decode(&u) == nil {
			if _, _, err := applyUpdate(w, ss, 3, u); err == nil {
				want = http.StatusAccepted
			}
		}
		if code := post(t, bytes.NewReader(body)); code != want {
			t.Fatalf("POST /v1/update %q: %d, want %d", body, code, want)
		}
	})
}
