package model

import (
	"bytes"
	"testing"

	"dpcpp/internal/rt"
)

// rebuild constructs the semantically identical taskset a second time so
// tests can perturb one copy without aliasing.
func hashTaskSet(t *testing.T, mutate func(ts *Taskset)) *Taskset {
	t.Helper()
	ts := NewTaskset(4, 2)

	t0 := NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	a := t0.AddVertex(10 * rt.Microsecond)
	b := t0.AddVertex(10 * rt.Microsecond)
	t0.AddEdge(a, b)
	t0.AddRequest(a, 0, 2, 2*rt.Microsecond)
	t0.AddRequest(b, 1, 1, 3*rt.Microsecond)
	ts.Add(t0)

	t1 := NewTask(1, 50*rt.Microsecond, 50*rt.Microsecond)
	c := t1.AddVertex(8 * rt.Microsecond)
	t1.AddRequest(c, 0, 1, 4*rt.Microsecond)
	ts.Add(t1)

	if mutate != nil {
		mutate(ts)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return ts
}

func TestHashDeterministic(t *testing.T) {
	a := hashTaskSet(t, nil)
	b := hashTaskSet(t, nil)
	if a.Hash() != b.Hash() {
		t.Fatalf("identical tasksets hash differently:\n%s\n%s", a.Hash(), b.Hash())
	}
	if a.Hash() != a.Hash() {
		t.Fatal("Hash is not stable across calls")
	}
}

func TestHashIgnoresTaskOrderAndName(t *testing.T) {
	a := hashTaskSet(t, nil)
	b := hashTaskSet(t, func(ts *Taskset) {
		ts.Tasks[0], ts.Tasks[1] = ts.Tasks[1], ts.Tasks[0]
		ts.Tasks[0].Name = "renamed"
	})
	if a.Hash() != b.Hash() {
		t.Fatalf("task order / Name changed the hash:\ncanonical a: %s\ncanonical b: %s",
			a.AppendCanonical(nil), b.AppendCanonical(nil))
	}
}

func TestHashIgnoresDuplicateEdgesAndZeroRequests(t *testing.T) {
	a := hashTaskSet(t, nil)
	b := hashTaskSet(t, func(ts *Taskset) {
		ts.Tasks[0].AddEdge(0, 1) // duplicate of the existing edge
		ts.Tasks[1].Vertices[0].Requests.add(1, 0)
	})
	if a.Hash() != b.Hash() {
		t.Fatalf("duplicate edge / zero-count request changed the hash:\na: %s\nb: %s",
			a.AppendCanonical(nil), b.AppendCanonical(nil))
	}
}

func TestHashSensitivity(t *testing.T) {
	base := hashTaskSet(t, nil).Hash()
	cases := []struct {
		name   string
		mutate func(ts *Taskset)
	}{
		{"wcet", func(ts *Taskset) { ts.Tasks[0].Vertices[0].WCET += rt.Microsecond }},
		{"period", func(ts *Taskset) { ts.Tasks[1].Period += rt.Microsecond }},
		{"deadline", func(ts *Taskset) { ts.Tasks[0].Deadline -= rt.Microsecond }},
		{"edge", func(ts *Taskset) { ts.Tasks[0].Edges = nil }},
		{"requests", func(ts *Taskset) { ts.Tasks[1].Vertices[0].Requests[0].Count = 2 }},
		{"cslen", func(ts *Taskset) {
			ts.Tasks[1].CSLen[0] = 5 * rt.Microsecond
		}},
		{"procs", func(ts *Taskset) { ts.NumProcs = 8 }},
		{"priority", func(ts *Taskset) {
			ts.Tasks[0].Priority = 2
			ts.Tasks[1].Priority = 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := hashTaskSet(t, tc.mutate).Hash()
			if h == base {
				t.Errorf("mutation %q did not change the hash", tc.name)
			}
		})
	}
}

// TestHashJSONRoundTrip pins the invariant the server's cache depends on:
// the hash survives an encode/decode cycle bit-exactly. FuzzTasksetJSON
// extends this to arbitrary valid documents.
func TestHashJSONRoundTrip(t *testing.T) {
	ts := hashTaskSet(t, nil)
	var buf bytes.Buffer
	if err := EncodeTaskset(&buf, ts); err != nil {
		t.Fatalf("encode: %v", err)
	}
	ts2, err := DecodeTaskset(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ts.Hash() != ts2.Hash() {
		t.Fatalf("hash changed across JSON round trip:\nbefore: %s\nafter:  %s\ncanonical before: %s\ncanonical after:  %s",
			ts.Hash(), ts2.Hash(), ts.AppendCanonical(nil), ts2.AppendCanonical(nil))
	}
}

// TestHashSizesBufferExactly: canonicalLen equals the canonical form's
// length, so Hash builds it in one allocation.
func TestHashSizesBufferExactly(t *testing.T) {
	ts := hashTaskSet(t, nil)
	if got, want := ts.canonicalLen(), len(ts.AppendCanonical(nil)); got != want {
		t.Fatalf("canonicalLen %d, canonical form is %d bytes", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = ts.Hash() }); allocs != 1 {
		t.Fatalf("Hash made %v allocations, want 1", allocs)
	}
}

func TestHashRequiresFinalize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hash on an unfinalized taskset did not panic")
		}
	}()
	NewTaskset(2, 0).Hash()
}

func BenchmarkTasksetHash(b *testing.B) {
	ts := NewTaskset(4, 2)
	t0 := NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	var prev rt.VertexID = -1
	for i := 0; i < 64; i++ {
		v := t0.AddVertex(10 * rt.Microsecond)
		if prev >= 0 {
			t0.AddEdge(prev, v)
		}
		t0.AddRequest(v, rt.ResourceID(i%2), 1, rt.Microsecond)
		prev = v
	}
	ts.Add(t0)
	t1 := NewTask(1, 50*rt.Microsecond, 50*rt.Microsecond)
	t1.AddVertex(8 * rt.Microsecond)
	ts.Add(t1)
	if err := ts.Finalize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts.Hash()
	}
}
