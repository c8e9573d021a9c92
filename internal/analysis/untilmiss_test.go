package analysis

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// fullPass wraps an analyzer so that every round runs a complete pass,
// whatever untilMiss the partitioning loop asks for: the loops as they ran
// before they could stop a round at the first deadline miss.
type fullPass struct{ a partition.Analyzer }

func (f fullPass) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	return f.a.WCRTs(p, false)
}

// TestUntilMissChangesNoResult is the differential gate for stopping a
// round at the first deadline miss: over the equivalence corpus, for every
// method under both placements, the loops driven by the real analyzer and
// by the full-pass adapter return field-for-field identical Results. On
// each final partition the untilMiss map is also checked against the
// contract: a priority-order prefix that ends at the first miss, with the
// full pass's values.
func TestUntilMissChangesNoResult(t *testing.T) {
	for ci, ts := range equivalenceCorpus(t) {
		for _, m := range Methods() {
			for _, h := range []partition.PlacementHeuristic{partition.WFD, partition.FFD} {
				got := TestWith(nil, m, ts, Options{Placement: h})
				want := partitionFor(m, ts, fullPass{NewAnalyzer(nil, m, ts, Options{})}, h)
				label := fmt.Sprintf("%s corpus %d placement %d", m, ci, h)
				requireIdentical(t, label, got, want)
				if (got.Partition == nil) != (want.Partition == nil) {
					t.Fatalf("%s: partition presence differs", label)
				}
				if got.Partition != nil {
					checkPrefix(t, label, ts, NewAnalyzer(nil, m, ts, Options{}), got.Partition)
				}
			}
		}
	}
}

// checkPrefix asserts the untilMiss contract of a on one partition.
func checkPrefix(t *testing.T, label string, ts *model.Taskset, a partition.Analyzer, p *partition.Partition) {
	t.Helper()
	full := maps.Clone(a.WCRTs(p, false))
	part := a.WCRTs(p, true)
	missed := false
	for _, tk := range ts.ByPriorityDesc() {
		r, ok := part[tk.ID]
		if missed {
			// Spin, LPP and FED-FP may keep going; what they report must
			// still be the full pass's value.
			if ok && r != full[tk.ID] {
				t.Fatalf("%s: task %d below the first miss: %d != full %d", label, tk.ID, r, full[tk.ID])
			}
			continue
		}
		if !ok || r != full[tk.ID] {
			t.Fatalf("%s: task %d: untilMiss (%d, present=%v) != full %d", label, tk.ID, r, ok, full[tk.ID])
		}
		missed = r > tk.Deadline
	}
}

// fixPointCounter counts StageFixPoint events: one per task whose
// Theorem 1 fixed point a round actually iterates.
type fixPointCounter struct{ n int }

func (c *fixPointCounter) RecordStage(s Stage, _ time.Duration) {
	if s == StageFixPoint {
		c.n++
	}
}

// TestUntilMissSavesFixPoints pins the work stopping at the first miss
// saves, as a count of fixed-point iterations, on one Fig. 2(b) taskset
// whose EP partitioning takes several augmenting rounds. Both runs take
// the same rounds; the early-stopping one iterates strictly fewer fixed
// points.
func TestUntilMissSavesFixPoints(t *testing.T) {
	const (
		wantRounds = 19
		wantFull   = 95 // 5 tasks in every round
		wantEarly  = 23
	)
	scen, err := taskgen.Fig2Scenario("2b")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := taskgen.NewGenerator(scen).Taskset(rand.New(rand.NewSource(3)), 8.0)
	if err != nil {
		t.Fatal(err)
	}
	count := func(wrap bool) (partition.Result, int) {
		var c fixPointCounter
		sc := NewScratch()
		sc.SetStageRecorder(&c)
		a := NewAnalyzer(sc, DPCPpEP, ts, Options{})
		if wrap {
			a = fullPass{a}
		}
		return partition.Algorithm1(ts, a, partition.WFD), c.n
	}
	early, nEarly := count(false)
	full, nFull := count(true)
	requireIdentical(t, "fig2b EP", early, full)
	if early.Rounds != wantRounds {
		t.Errorf("rounds = %d, want %d", early.Rounds, wantRounds)
	}
	if nFull != wantFull || nEarly != wantEarly {
		t.Errorf("fixed points: early %d full %d, want %d and %d", nEarly, nFull, wantEarly, wantFull)
	}
	if nEarly >= nFull {
		t.Errorf("stopping at the first miss saved nothing: %d >= %d", nEarly, nFull)
	}
}
