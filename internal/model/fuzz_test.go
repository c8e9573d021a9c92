package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dpcpp/internal/rt"
)

// FuzzTasksetJSON fuzzes the taskset JSON surface (cmd/taskgen output,
// audit fixtures, cmd/dpcpsim input, the taskset of an analyze body).
//
// Whenever Scanner accepts a document, strict encoding/json accepts it too
// and decodes a reflect.DeepEqual value, nil versus empty slices and maps
// included. Any byte slice that decodes into a valid taskset must
// re-encode bit-stably — Taskset → JSON → Taskset → JSON yields identical
// bytes — and the round-tripped taskset must agree on every derived
// quantity. Inputs Finalize rejects are simply skipped; the fuzzer's other
// job is proving Finalize rejects malformed documents instead of panicking
// (hostile vertex IDs, null tasks and vertices, negative resource IDs and
// CS lengths, negative resource counts, overflowing WCETs).
//
// The seed corpus lives in testdata/fuzz/FuzzTasksetJSON; run
// `go test -fuzz FuzzTasksetJSON ./internal/model` to hunt.
func FuzzTasksetJSON(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100}]}],"num_resources":0,"num_procs":2}`))
	f.Add([]byte(`{"tasks":[],"num_resources":-1,"num_procs":2}`))
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":7,"wcet":100}]}],"num_resources":0,"num_procs":2}`))
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":1,"vertices":[{"id":0,"wcet":100,"requests":{"0":2}}],"cslen":[-5]}],"num_resources":1,"num_procs":2}`))
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"-1":1}}]}],"num_resources":1,"num_procs":2}`))
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"2":1,"10":0,"0":1}},{"id":1,"wcet":100,"requests":{}}],"edges":[{"from":0,"to":1},{"from":0,"to":1}],"cslen":[5,0,5,0,0,0,0,0,0,0,9]}],"num_resources":11,"num_procs":2}`))
	for _, doc := range fixtureTasksets(f) {
		var indented bytes.Buffer
		if err := json.Indent(&indented, doc, "\n", " "); err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(indented.Bytes())
	}
	for _, docs := range []map[string]string{scanAccepted, scanDeclined} {
		for _, doc := range docs {
			f.Add([]byte(doc))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if scanned, ok := scanTaskset(data); ok {
			var want Taskset
			if err := strictDecode(data, &want); err != nil {
				t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(scanned, &want) {
				t.Fatalf("scanned %+v, encoding/json decodes %+v from %q", scanned, &want, data)
			}
		}
		ts, err := DecodeTaskset(bytes.NewReader(data))
		if err != nil {
			return // malformed or invalid: rejection (not a panic) is the contract
		}
		var first bytes.Buffer
		if err := EncodeTaskset(&first, ts); err != nil {
			t.Fatalf("encoding a decoded taskset: %v", err)
		}
		ts2, err := DecodeTaskset(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding our own encoding: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := EncodeTaskset(&second, ts2); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not bit-stable:\nfirst:  %s\nsecond: %s",
				first.String(), second.String())
		}
		// The content address must survive the round trip bit-exactly:
		// the server's result cache keys on it.
		if ts.Hash() != ts2.Hash() {
			t.Fatalf("hash not stable across round trip:\nbefore: %s (%s)\nafter:  %s (%s)",
				ts.Hash(), ts.AppendCanonical(nil), ts2.Hash(), ts2.AppendCanonical(nil))
		}
		if len(ts2.Tasks) != len(ts.Tasks) {
			t.Fatalf("task count changed: %d -> %d", len(ts.Tasks), len(ts2.Tasks))
		}
		for i := range ts.Tasks {
			a, b := ts.Tasks[i], ts2.Tasks[i]
			if a.WCET() != b.WCET() || a.LongestPath() != b.LongestPath() ||
				a.Priority != b.Priority || a.Deadline != b.Deadline {
				t.Fatalf("task %d: derived quantities diverged across round trip", i)
			}
			for q := 0; q < ts.NumResources; q++ {
				rid := rt.ResourceID(q)
				if a.NumRequests(rid) != b.NumRequests(rid) || a.CS(rid) != b.CS(rid) {
					t.Fatalf("task %d resource %d: request profile diverged", i, q)
				}
			}
		}
	})
}

// FuzzTasksetPatch fuzzes the patch surface (POST /v1/analyze/delta): for
// any base taskset and any patch document, ApplyPatch must either reject
// with a structured *PatchError — never a panic — or produce a finalized
// taskset whose content address is reproducible: applying the same patch
// twice yields identical hashes, a JSON round trip of the result is
// hash-stable (the patched set is a fully valid document even though it
// shares untouched Task pointers with the base), and the base itself stays
// bit-identical.
//
// Run `go test -fuzz FuzzTasksetPatch ./internal/model` to hunt.
func FuzzTasksetPatch(f *testing.F) {
	base := `{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":2,"vertices":[{"id":0,"wcet":100},{"id":1,"wcet":50,"requests":{"0":1}}],"edges":[{"from":0,"to":1}],"cslen":[5,0]},{"id":1,"period":2000,"deadline":2000,"priority":1,"vertices":[{"id":0,"wcet":200}]}],"num_resources":2,"num_procs":4}`
	f.Add([]byte(base), []byte(`{"ops":[{"op":"set_wcet","task":0,"vertex":1,"value":80}]}`))
	f.Add([]byte(base), []byte(`{"ops":[{"op":"set_request","task":1,"vertex":0,"resource":1,"count":2},{"op":"set_cslen","task":1,"resource":1,"value":7}]}`))
	f.Add([]byte(base), []byte(`{"ops":[{"op":"remove_task","task":0},{"op":"add_task","new_task":{"id":5,"period":500,"deadline":500,"priority":9,"vertices":[{"id":0,"wcet":10}]}}]}`))
	f.Add([]byte(base), []byte(`{"ops":[{"op":"set_wcet","task":0,"vertex":1,"value":-3}]}`))
	f.Add([]byte(base), []byte(`{"ops":[{"op":"add_edge","task":0,"from":1,"to":0}]}`))
	// Removing the only task with an explicit priority leaves Finalize to
	// assign rate-monotonic ones; the base's priority-0 task must not get one.
	f.Add([]byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":0,"vertices":[{"id":0,"wcet":100}]},{"id":1,"period":2000,"deadline":2000,"priority":5,"vertices":[{"id":0,"wcet":200}]}],"num_resources":0,"num_procs":2}`),
		[]byte(`{"ops":[{"op":"remove_task","task":1}]}`))

	f.Fuzz(func(t *testing.T, tsData, patchData []byte) {
		ts, err := DecodeTaskset(bytes.NewReader(tsData))
		if err != nil {
			return
		}
		var p Patch
		if err := json.Unmarshal(patchData, &p); err != nil {
			return
		}
		baseHash := ts.Hash()
		out, pd, err := ApplyPatch(ts, p)
		if ts.Hash() != baseHash {
			t.Fatal("ApplyPatch mutated the base taskset")
		}
		if err != nil {
			var perr *PatchError
			if !errors.As(err, &perr) {
				t.Fatalf("rejection is not a *PatchError: %T %v", err, err)
			}
			if out != nil || pd != nil {
				t.Fatal("partial result alongside an error")
			}
			return
		}
		again, _, err := ApplyPatch(ts, p)
		if err != nil {
			t.Fatalf("second application rejected: %v", err)
		}
		if out.Hash() != again.Hash() {
			t.Fatalf("patching is not deterministic: %s vs %s", out.Hash(), again.Hash())
		}
		var buf bytes.Buffer
		if err := EncodeTaskset(&buf, out); err != nil {
			t.Fatalf("encoding patched taskset: %v", err)
		}
		rt2, err := DecodeTaskset(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding patched taskset: %v\n%s", err, buf.String())
		}
		if rt2.Hash() != out.Hash() {
			t.Fatalf("patched hash unstable across JSON round trip: %s vs %s", out.Hash(), rt2.Hash())
		}
		// Every task's stored path bounds equal those of the same task
		// rebuilt from its JSON, so no patched task keeps stale bounds.
		for _, pt := range out.Tasks {
			if got, want := pt.PathBounds(), rt2.Task(pt.ID).PathBounds(); !reflect.DeepEqual(got, want) {
				t.Fatalf("task %d path bounds %+v, rebuilt %+v", pt.ID, *got, *want)
			}
		}
	})
}
