package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// TestAnalyzeKeysMatchStructTags pins scanAnalyzeRequest's keys to
// AnalyzeRequest's JSON names, in field order.
func TestAnalyzeKeysMatchStructTags(t *testing.T) {
	typ := reflect.TypeOf(AnalyzeRequest{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		names = append(names, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
	}
	if !reflect.DeepEqual(names, analyzeKeys) {
		t.Fatalf("struct tags name %q, scanner keys are %q", names, analyzeKeys)
	}
}

// renamedRotation returns ts with its tasks rotated left by i and the
// first task named after i: the serve-repeat semantic-hit shape, a new
// body for the same canonical hash. ts itself is left untouched.
func renamedRotation(ts *model.Taskset, i int) *model.Taskset {
	n := len(ts.Tasks)
	out := &model.Taskset{NumResources: ts.NumResources, NumProcs: ts.NumProcs}
	for k := range ts.Tasks {
		out.Tasks = append(out.Tasks, ts.Tasks[(k+i%n+n)%n])
	}
	first := *out.Tasks[0]
	first.Name = "q" + strconv.Itoa(i)
	out.Tasks[0] = &first
	return out
}

// TestScannerAcceptsServeRepeatBodies: the scanner must accept every body
// of the serve-repeat shape — the 160 Fig. 2(a) tasksets as marshaled
// requests, each also rotated with a task renamed, and the schedd golden
// request — and decode each exactly as encoding/json does. A silent
// decline would not fail any other test; it would only drop the speedup.
func TestScannerAcceptsServeRepeatBodies(t *testing.T) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../cmd/schedd/testdata/fig2a_request.json")
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{golden}
	g := taskgen.NewGenerator(scen)
	for p, u := range taskgen.UtilizationPoints(scen.M) {
		for k := 0; k < 8; k++ {
			ts, err := experiments.GenerateSample(g, experiments.SampleSeed(1, scen.Name(), p, k), u)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []*model.Taskset{ts, renamedRotation(ts, p+k+1)} {
				body, err := json.Marshal(AnalyzeRequest{Taskset: v})
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	if len(bodies) != 1+2*160 {
		t.Fatalf("%d bodies, want the golden and 2x160", len(bodies))
	}
	for i, body := range bodies {
		got, ok := scanAnalyzeRequest(body)
		if !ok {
			t.Fatalf("body %d declined: %.200s", i, body)
		}
		var want AnalyzeRequest
		if err := decodeBytes(httptest.NewRecorder(), body, &want); err != nil {
			t.Fatalf("body %d: encoding/json rejects it: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: scanned request differs from encoding/json's", i)
		}
	}
}
