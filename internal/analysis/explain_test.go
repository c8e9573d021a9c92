package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// explainCase is one Explain input: a taskset, the path cap of the
// analysis and the partitioning result it ran on.
type explainCase struct {
	name string
	ts   *model.Taskset
	cap  int
	res  partition.Result
}

// explainCases runs DPCP-p-EP over the equivalence corpus at the default
// path cap and at cap 2 (where most fork-join tasks fall back to EN), plus
// the light-task set, which Algorithm1 packs, for the Sec. VI shared term.
func explainCases(t *testing.T) []explainCase {
	t.Helper()
	var cases []explainCase
	corpus := equivalenceCorpus(t)
	for _, pc := range []int{DefaultPathCap, 2} {
		for ci, ts := range corpus {
			cases = append(cases, explainCase{
				name: fmt.Sprintf("corpus %d cap %d", ci, pc),
				ts:   ts, cap: pc,
				res: Test(DPCPpEP, ts, Options{PathCap: pc}),
			})
		}
	}
	ts := lightSet(t)
	cases = append(cases, explainCase{
		name: "light", ts: ts, cap: DefaultPathCap,
		res: Test(DPCPpEP, ts, Options{}),
	})
	return cases
}

// rawBreakdown prints a Breakdown's fields without its String method.
type rawBreakdown Breakdown

// TestExplainGolden pins every raw Breakdown field Explain reports on the
// final partition of each explainCases input.
func TestExplainGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range explainCases(t) {
		fmt.Fprintf(&b, "%s schedulable=%v\n", c.name, c.res.Schedulable)
		if c.res.Partition == nil {
			continue
		}
		for _, bd := range NewDPCPp(c.ts, c.cap, false).Explain(c.res.Partition) {
			fmt.Fprintf(&b, "  %+v\n", rawBreakdown(bd))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("Explain output changed; run with -update if intended.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainMatchesWCRTs checks that every breakdown's Total is the WCRT
// the analysis reported, and that each converged Total is the sum of its
// components as Theorem 1 forms it.
func TestExplainMatchesWCRTs(t *testing.T) {
	checked := 0
	for _, c := range explainCases(t) {
		if c.res.WCRT == nil {
			continue
		}
		for _, bd := range NewDPCPp(c.ts, c.cap, false).Explain(c.res.Partition) {
			checked++
			if bd.Total != c.res.WCRT[bd.TaskID] {
				t.Errorf("%s task %d: breakdown total %s != WCRT %s", c.name,
					bd.TaskID, rt.FormatTime(bd.Total), rt.FormatTime(c.res.WCRT[bd.TaskID]))
			}
			if bd.Total >= rt.Infinity {
				continue
			}
			sum := rt.SatAdd(bd.PathLength, bd.InterTaskBlocking)
			sum = rt.SatAdd(sum, bd.IntraTaskBlocking)
			sum = rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(bd.IntraInterference, bd.AgentInterference), bd.Procs))
			sum = rt.SatAdd(sum, bd.SharedPreemption)
			if sum != bd.Total {
				t.Errorf("%s task %d: components sum to %s, Total %s", c.name,
					bd.TaskID, rt.FormatTime(sum), rt.FormatTime(bd.Total))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no breakdown checked")
	}
}

func TestExplainComponentsHandChecked(t *testing.T) {
	// The hand example: R_A = 19us = 10 (path) + 3 (inter-task, eps) +
	// 6 (agent interference: 2 jobs x 3us; m_i = 1).
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	a := NewDPCPp(ts, DefaultPathCap, false)
	bds := a.Explain(res.Partition)

	var bdA Breakdown
	for _, bd := range bds {
		if bd.TaskID == 0 {
			bdA = bd
		}
	}
	if bdA.PathLength != 10*rt.Microsecond {
		t.Errorf("PathLength = %s", rt.FormatTime(bdA.PathLength))
	}
	if bdA.InterTaskBlocking != 3*rt.Microsecond {
		t.Errorf("InterTaskBlocking = %s, want 3us", rt.FormatTime(bdA.InterTaskBlocking))
	}
	if bdA.AgentInterference != 6*rt.Microsecond {
		t.Errorf("AgentInterference = %s, want 6us", rt.FormatTime(bdA.AgentInterference))
	}
	if bdA.IntraTaskBlocking != 0 || bdA.IntraInterference != 0 {
		t.Errorf("intra terms = %s, %s; want 0, 0",
			rt.FormatTime(bdA.IntraTaskBlocking), rt.FormatTime(bdA.IntraInterference))
	}
	if bdA.Total != 19*rt.Microsecond {
		t.Errorf("Total = %s, want 19us", rt.FormatTime(bdA.Total))
	}
}

func TestExplainStringRendering(t *testing.T) {
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	a := NewDPCPp(ts, DefaultPathCap, false)
	for _, bd := range a.Explain(res.Partition) {
		s := bd.String()
		for _, want := range []string{"L(lambda)", "inter-task B", "total R"} {
			if !strings.Contains(s, want) {
				t.Errorf("breakdown string missing %q:\n%s", want, s)
			}
		}
	}
}

func TestExplainSharedTask(t *testing.T) {
	ts := lightSet(t)
	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	a := NewDPCPp(ts, DefaultPathCap, false)
	bds := a.Explain(res.Partition)
	for _, bd := range bds {
		if bd.Total != res.WCRT[bd.TaskID] {
			t.Errorf("task %d: explain total %s != WCRT %s",
				bd.TaskID, rt.FormatTime(bd.Total), rt.FormatTime(res.WCRT[bd.TaskID]))
		}
		if bd.TaskID == 0 && bd.SharedPreemption == 0 {
			t.Error("task A shares with higher-priority C2 but SharedPreemption = 0")
		}
	}
}
