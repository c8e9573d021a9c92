package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// randomPatch draws one structurally valid random patch for ts. The op mix
// covers every patch kind the what-if path sees: WCET bumps and shrinks,
// CS/request edits (including sharer flips), edge edits and timing edits.
func randomPatch(r *rand.Rand, ts *model.Taskset) model.Patch {
	for tries := 0; tries < 32; tries++ {
		t := ts.Tasks[r.Intn(len(ts.Tasks))]
		x := rt.VertexID(r.Intn(len(t.Vertices)))
		v := t.Vertices[x]
		var csNeed rt.Time
		for _, rq := range v.Requests {
			csNeed += rt.Time(rq.Count) * t.CS(rq.Resource)
		}
		switch r.Intn(10) {
		case 0, 1, 2: // WCET bump up: always valid.
			return onePatch(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: x,
				Value: v.WCET + 1 + rt.Time(r.Int63n(int64(rt.Microsecond)))})
		case 3: // WCET shrink toward the critical-section floor.
			floor := csNeed
			if floor == 0 {
				floor = 1
			}
			if v.WCET <= floor {
				continue
			}
			return onePatch(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: x,
				Value: floor + rt.Time(r.Int63n(int64(v.WCET-floor)))})
		case 4: // Request count up (or a sharer flip from zero).
			if ts.NumResources == 0 {
				continue
			}
			q := rt.ResourceID(r.Intn(ts.NumResources))
			if v.WCET-csNeed < t.CS(q) {
				continue
			}
			n := v.Requests.Count(q)
			return onePatch(model.PatchOp{Op: model.OpSetRequest, Task: t.ID, Vertex: x,
				Resource: q, Count: n + 1})
		case 5: // Request count down (possibly a sharer flip to zero).
			if len(v.Requests) == 0 {
				continue
			}
			for _, q := range t.Resources() {
				if n := v.Requests.Count(q); n > 0 {
					return onePatch(model.PatchOp{Op: model.OpSetRequest, Task: t.ID,
						Vertex: x, Resource: q, Count: n - 1})
				}
			}
			continue
		case 6: // CS length shrink.
			for _, q := range t.Resources() {
				if l := t.CS(q); l > 1 {
					return onePatch(model.PatchOp{Op: model.OpSetCSLen, Task: t.ID,
						Resource: q, Value: 1 + rt.Time(r.Int63n(int64(l)))})
				}
			}
			continue
		case 7: // Deadline shrink (stays above the longest path).
			lo := t.LongestPath() + 1
			if lo >= t.Deadline {
				continue
			}
			return onePatch(model.PatchOp{Op: model.OpSetDeadline, Task: t.ID,
				Value: lo + rt.Time(r.Int63n(int64(t.Deadline-lo)))})
		case 8: // Period grow (keeps D <= T).
			return onePatch(model.PatchOp{Op: model.OpSetPeriod, Task: t.ID,
				Value: t.Period + 1 + rt.Time(r.Int63n(int64(t.Period)))})
		case 9: // Edge add along the topological order (never a cycle).
			topo := t.Topo()
			if len(topo) < 2 {
				continue
			}
			i := r.Intn(len(topo) - 1)
			j := i + 1 + r.Intn(len(topo)-i-1)
			return onePatch(model.PatchOp{Op: model.OpAddEdge, Task: t.ID,
				From: topo[i], To: topo[j]})
		}
	}
	// Fallback: bump the first vertex of the first task.
	t := ts.Tasks[0]
	return onePatch(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: 0,
		Value: t.Vertices[0].WCET + 1})
}

func onePatch(op model.PatchOp) model.Patch { return model.Patch{Ops: []model.PatchOp{op}} }

// requireIdentical asserts two results are bit-identical: verdict,
// reason, rounds, every WCRT, and the assignment.
func requireIdentical(t *testing.T, label string, d, full partition.Result) {
	t.Helper()
	if d.Schedulable != full.Schedulable || d.Reason != full.Reason || d.Rounds != full.Rounds {
		t.Fatalf("%s: verdict mismatch: delta={sched=%v rounds=%d reason=%q} full={sched=%v rounds=%d reason=%q}",
			label, d.Schedulable, d.Rounds, d.Reason, full.Schedulable, full.Rounds, full.Reason)
	}
	if len(d.WCRT) != len(full.WCRT) {
		t.Fatalf("%s: WCRT map sizes differ: %d vs %d", label, len(d.WCRT), len(full.WCRT))
	}
	for id, r := range full.WCRT {
		if d.WCRT[id] != r {
			t.Fatalf("%s: WCRT of task %d differs: delta=%d full=%d", label, id, d.WCRT[id], r)
		}
	}
	if d.Partition != nil && full.Partition != nil && !sameAssignment(d.Partition, full.Partition) {
		t.Fatalf("%s: final partitions differ", label)
	}
}

// sameAssignment reports whether two partitions agree on every cluster,
// processor owner, shared light task and resource placement, in order.
func sameAssignment(a, b *partition.Partition) bool {
	if a.TS.NumProcs != b.TS.NumProcs {
		return false
	}
	for _, t := range a.TS.Tasks {
		if !slices.Equal(a.Procs(t.ID), b.Procs(t.ID)) {
			return false
		}
	}
	for k := 0; k < a.TS.NumProcs; k++ {
		p := rt.ProcID(k)
		if a.Owner(p) != b.Owner(p) || !slices.Equal(a.SharedOn(p), b.SharedOn(p)) ||
			!slices.Equal(a.ResourcesOn(p), b.ResourcesOn(p)) {
			return false
		}
	}
	return true
}

// TestDeltaNoStateForUnschedulable pins that Delta never chains onto an
// unschedulable result: chaining from a failed what-if must re-anchor.
func TestDeltaNoStateForUnschedulable(t *testing.T) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	_, d := NewDelta(sc, DPCPpEP, ts, Options{})
	if d == nil {
		t.Fatal("no delta state for schedulable base")
	}
	// Shrink a deadline to the longest-path floor: trivially unschedulable
	// under any blocking at all, yet still a valid taskset.
	tk := ts.Tasks[0]
	p := onePatch(model.PatchOp{Op: model.OpSetDeadline, Task: tk.ID, Value: tk.LongestPath() + 1})
	patched, pd, err := model.ApplyPatch(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	res, _, next := d.ApplyTo(sc, patched, pd)
	if res.Schedulable {
		t.Skip("deadline floor still schedulable; scenario too slack")
	}
	if next != nil {
		t.Fatal("delta state retained for unschedulable result")
	}
}

// TestDeltaDifferential drives random patch chains through both Delta and
// a from-scratch analysis on a separate scratch, asserting bit-identical
// results at every step. Across bases, methods and chains it performs well
// over 1000 patch applications.
func TestDeltaDifferential(t *testing.T) {
	gen := taskgen.NewAdversarial()
	sc := NewScratch()
	fullSc := NewScratch()
	applications := 0
	for _, m := range []Method{DPCPpEP, DPCPpEN} {
		for seed := int64(0); seed < 60; seed++ {
			r := rand.New(rand.NewSource(1000 + seed))
			ts, shape, err := gen.Taskset(r)
			if err != nil {
				continue
			}
			opts := Options{}
			res, d := NewDelta(sc, m, ts, opts)
			full := TestWith(fullSc, m, ts, opts)
			requireIdentical(t, fmt.Sprintf("%s/seed%d/base(%s)", m, seed, shape), res, full)
			if d == nil {
				continue
			}
			for step := 0; step < 20; step++ {
				p := randomPatch(r, d.Base())
				patched, pd, err := model.ApplyPatch(d.Base(), p)
				if err != nil {
					t.Fatalf("%s/seed%d/step%d: generated patch rejected: %v", m, seed, step, err)
				}
				dres, _, next := d.ApplyTo(sc, patched, pd)
				full := TestWith(fullSc, m, patched, opts)
				requireIdentical(t, fmt.Sprintf("%s/seed%d/step%d", m, seed, step), dres, full)
				if next != nil && !dres.Schedulable {
					t.Fatalf("%s/seed%d/step%d: state retained for unschedulable result", m, seed, step)
				}
				applications++
				if next != nil {
					// Chain onward from the patched state; an unschedulable
					// step re-anchors on the previous base.
					d = next
				}
			}
		}
	}
	if applications < 1000 {
		t.Fatalf("differential suite performed only %d patch applications, want >= 1000", applications)
	}
}
