package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// randomPatch draws one structurally valid random patch for ts. The op mix
// covers every reuse mode of the delta analyzer: pure WCET bumps (skip +
// warm start), WCET shrinks (skip without warm start), CS/request edits
// (view invalidation, sharer flips), edge edits, timing edits and
// add/remove-task (full fallback).
func randomPatch(r *rand.Rand, ts *model.Taskset) model.Patch {
	for tries := 0; tries < 32; tries++ {
		t := ts.Tasks[r.Intn(len(ts.Tasks))]
		x := rt.VertexID(r.Intn(len(t.Vertices)))
		v := t.Vertices[x]
		var csNeed rt.Time
		for q, n := range v.Requests {
			csNeed += rt.Time(n) * t.CS(q)
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
			n := v.Requests[q]
			return onePatch(model.PatchOp{Op: model.OpSetRequest, Task: t.ID, Vertex: x,
				Resource: q, Count: n + 1})
		case 5: // Request count down (possibly a sharer flip to zero).
			if len(v.Requests) == 0 {
				continue
			}
			for _, q := range t.Resources() {
				if n := v.Requests[q]; n > 0 {
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

// requireIdentical asserts a delta result is bit-identical to a full
// re-analysis: verdict, reason, rounds, every WCRT, and the assignment.
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
	if d.Partition != nil && full.Partition != nil && !d.Partition.EqualAssignment(full.Partition) {
		t.Fatalf("%s: final partitions differ", label)
	}
}

// reuseWant is the reuse profile one patch kind must produce: matched
// partition rounds, reused and recomputed task analyses, warm-started
// fixed points, and seeded and replayed path views (DeltaStats fields).
type reuseWant struct {
	matched, reused, recomputed, warm, seeded, replayed int
}

// TestDeltaReuseEngages pins which reuse tiers each patch kind engages:
// on a 4-task fig2a taskset, one edit of the lowest-priority task per
// kind, for EP and EN, must produce exactly the expected reuse profile
// while staying bit-identical to a full re-analysis.
//
//   - WCET and edge edits are structure-only: the final round matches, the
//     3 untouched tasks are skipped and only the edited one recomputes
//     (warm-started when its WCET grew; EP replays its views from the
//     retained plan, EN builds views without one).
//   - CS growth is nondecreasing but not structure-only: the round matches
//     and all 4 tasks recompute, each warm-started.
//   - CS shrink and period changes fit neither mode: no round matches, and
//     only the untouched tasks' views are seeded.
//
// A regression that silently degrades a reuse tier to recompute-everything
// stays correct, so only these counters catch it.
func TestDeltaReuseEngages(t *testing.T) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tasks) != 4 {
		t.Fatalf("base has %d tasks; the profiles below assume 4", len(ts.Tasks))
	}
	low := ts.Tasks[0]
	for _, tk := range ts.Tasks[1:] {
		if low.Priority.Higher(tk.Priority) {
			low = tk
		}
	}
	q := low.Resources()[0]
	topo := low.Topo()
	from, to := topo[0], topo[len(topo)-1]
	for _, s := range low.Succ(from) {
		if s == to {
			t.Fatalf("task %d already has edge (%d,%d)", low.ID, from, to)
		}
	}
	wcet := low.Vertices[0].WCET
	kinds := []struct {
		name   string
		op     model.PatchOp
		ep, en reuseWant
	}{
		{"set_wcet-up", model.PatchOp{Op: model.OpSetWCET, Task: low.ID, Vertex: 0, Value: wcet + 1000},
			reuseWant{1, 3, 1, 1, 3, 1}, reuseWant{1, 3, 1, 1, 3, 0}},
		{"set_wcet-down", model.PatchOp{Op: model.OpSetWCET, Task: low.ID, Vertex: 0, Value: wcet - 1000},
			reuseWant{1, 3, 1, 0, 3, 1}, reuseWant{1, 3, 1, 0, 3, 0}},
		{"add_edge", model.PatchOp{Op: model.OpAddEdge, Task: low.ID, From: from, To: to},
			reuseWant{1, 3, 1, 0, 3, 0}, reuseWant{1, 3, 1, 0, 3, 0}},
		{"set_cslen-up", model.PatchOp{Op: model.OpSetCSLen, Task: low.ID, Resource: q, Value: low.CS(q) + 1},
			reuseWant{1, 0, 4, 4, 3, 0}, reuseWant{1, 0, 4, 4, 3, 0}},
		{"set_cslen-down", model.PatchOp{Op: model.OpSetCSLen, Task: low.ID, Resource: q, Value: low.CS(q) - 1},
			reuseWant{0, 0, 0, 0, 3, 0}, reuseWant{0, 0, 0, 0, 3, 0}},
		{"set_period", model.PatchOp{Op: model.OpSetPeriod, Task: low.ID, Value: low.Period + 1000},
			reuseWant{0, 0, 0, 0, 4, 0}, reuseWant{0, 0, 0, 0, 4, 0}},
	}
	for _, k := range kinds {
		for _, m := range []Method{DPCPpEP, DPCPpEN} {
			want := k.ep
			if m == DPCPpEN {
				want = k.en
			}
			label := fmt.Sprintf("%s/%s", k.name, m)
			sc := NewScratch()
			_, d := NewDelta(sc, m, ts, Options{})
			if d == nil {
				t.Fatalf("%s: no delta state retained for schedulable base", label)
			}
			patched, pd, err := model.ApplyPatch(ts, onePatch(k.op))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, st, next := d.ApplyTo(sc, patched, pd)
			requireIdentical(t, label, res, TestWith(NewScratch(), m, patched, Options{}))
			if (next != nil) != res.Schedulable {
				t.Errorf("%s: state retained=%v for schedulable=%v result", label, next != nil, res.Schedulable)
			}
			got := reuseWant{st.MatchedRounds, st.Reused, st.Recomputed,
				st.WarmStarted, st.ViewsSeeded, st.ViewsReplayed}
			if got != want {
				t.Errorf("%s: reuse profile %+v, want %+v (rounds %d)", label, got, want, st.Rounds)
			}
		}
	}
}

// TestDeltaNoStateForUnschedulable pins that Delta never retains state for
// an unschedulable base: chaining from a failed what-if must re-anchor.
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

// TestDeltaDifferential drives random patch chains through both the
// incremental path and a from-scratch analysis, asserting bit-identical
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
