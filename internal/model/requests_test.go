package model

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dpcpp/internal/rt"
)

// mapVertex is Vertex with the request profile as the map it used to be;
// its encoding/json output is the wire form Requests must keep.
type mapVertex struct {
	ID       rt.VertexID           `json:"id"`
	WCET     rt.Time               `json:"wcet"`
	Requests map[rt.ResourceID]int `json:"requests,omitempty"`
}

func asMap(rs Requests) map[rt.ResourceID]int {
	if rs == nil {
		return nil
	}
	m := make(map[rt.ResourceID]int, len(rs))
	for _, r := range rs {
		m[r.Resource] = r.Count
	}
	return m
}

// TestRequestsWireMatchesMap: a vertex marshals byte-identically to the
// same vertex with a map[rt.ResourceID]int profile, and a profile alone to
// the map alone. The cases cover resource IDs of two digits (Fig. 2(b)
// draws 8 to 16 resources, and encoding/json orders "10" before "2"), zero
// counts, negative IDs, and nil and empty profiles.
func TestRequestsWireMatchesMap(t *testing.T) {
	cases := []Requests{
		nil,
		{},
		{{Resource: 0, Count: 0}},
		{{Resource: 2, Count: 1}, {Resource: 10, Count: 3}},
		{{Resource: 1, Count: 4}, {Resource: 3, Count: 0}, {Resource: 9, Count: 2}, {Resource: 11, Count: 1}, {Resource: 15, Count: 7}},
		{{Resource: -1, Count: 1}, {Resource: 0, Count: 2}},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var rs Requests
		for q := 0; q < 17; q++ {
			if r.Intn(3) == 0 {
				rs = append(rs, Request{Resource: rt.ResourceID(q), Count: r.Intn(4)})
			}
		}
		cases = append(cases, rs)
	}
	for _, rs := range cases {
		got, err := json.Marshal(&Vertex{ID: 3, WCET: 100, Requests: rs})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(&mapVertex{ID: 3, WCET: 100, Requests: asMap(rs)})
		if !bytes.Equal(got, want) {
			t.Fatalf("profile %v: vertex marshals to %s, the map form to %s", rs, got, want)
		}
		got, _ = json.Marshal(rs)
		want, _ = json.Marshal(asMap(rs))
		if !bytes.Equal(got, want) {
			t.Fatalf("profile %v marshals to %s, the map to %s", rs, got, want)
		}

		var back Requests
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, rs) {
			t.Fatalf("profile %v came back as %v", rs, back)
		}
	}
}

// TestRequestsDecodeLikeMap: decoding keeps map semantics. Entries come
// out sorted by resource whatever the key order, a repeated key keeps its
// last value, a second object merges into the first, null clears the
// profile, and {} is an empty but non-nil profile.
func TestRequestsDecodeLikeMap(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want Requests
	}{
		{`{"10":2,"2":1,"0":0}`, Requests{{0, 0}, {2, 1}, {10, 2}}},
		{`{"1":1,"1":3}`, Requests{{1, 3}}},
		{`{}`, Requests{}},
		{`null`, nil},
	} {
		var got Requests
		if err := json.Unmarshal([]byte(tc.doc), &got); err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s decoded to %#v, want %#v", tc.doc, got, tc.want)
		}
	}

	var v Vertex
	if err := json.Unmarshal([]byte(`{"id":0,"wcet":9,"requests":{"1":1},"requests":{"2":1,"1":5}}`), &v); err != nil {
		t.Fatal(err)
	}
	if want := (Requests{{1, 5}, {2, 1}}); !reflect.DeepEqual(v.Requests, want) {
		t.Errorf("repeated requests field decoded to %v, want the merge %v", v.Requests, want)
	}
	if err := json.Unmarshal([]byte(`{"id":0,"wcet":9,"requests":null}`), &v); err != nil || v.Requests != nil {
		t.Errorf("null left %v (err %v), want a nil profile", v.Requests, err)
	}
}

// TestNegativeRequestKeyRejected: a negative resource key decodes, as it
// did into the map, and Finalize rejects it with the same message on both
// the encoding/json path and the Scanner path.
func TestNegativeRequestKeyRejected(t *testing.T) {
	const doc = `{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"-1":1}}]}],"num_resources":1,"num_procs":2}`
	const want = "model: task 0 vertex 0 requests unknown resource -1"
	if _, err := DecodeTaskset(strings.NewReader(doc)); err == nil || err.Error() != want {
		t.Fatalf("encoding/json path: %v, want %q", err, want)
	}
	ts, ok := scanTaskset([]byte(doc))
	if !ok {
		t.Fatal("scanner declined a negative key")
	}
	if err := ts.Finalize(); err == nil || err.Error() != want {
		t.Fatalf("scanner path: %v, want %q", err, want)
	}
}

// TestFinalizeRejectsUnsortedRequests: a profile built in Go out of
// resource order, or naming a resource twice, is rejected, since every
// reader relies on the order.
func TestFinalizeRejectsUnsortedRequests(t *testing.T) {
	for _, rs := range []Requests{{{1, 1}, {0, 1}}, {{0, 1}, {0, 2}}} {
		task := NewTask(0, 1000, 1000)
		task.AddVertex(100)
		task.Vertices[0].Requests = rs
		if err := task.Finalize(2); err == nil || !strings.Contains(err.Error(), "not sorted") {
			t.Errorf("profile %v: Finalize returned %v, want a not-sorted error", rs, err)
		}
	}
}
