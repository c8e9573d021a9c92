package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

func sweepScenario(t *testing.T, name string) taskgen.Scenario {
	t.Helper()
	scen, err := taskgen.Fig2Scenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return scen.DefaultStructure()
}

// hashBits are pseudo-methods whose "verdict" is one bit of the sample's
// taskset hash, so a point's Accepted counts fingerprint the tasksets it
// drew.
var hashBits = func() []analysis.Method {
	ms := make([]analysis.Method, 16)
	for i := range ms {
		ms[i] = analysis.Method(fmt.Sprintf("bit%d", i))
	}
	return ms
}()

func hashBitsTest(_ int, ts *model.Taskset, verdicts []bool) error {
	h := ts.Hash()
	for i := range verdicts {
		verdicts[i] = h[i/8]>>(i%8)&1 == 1
	}
	return nil
}

// sweepPoints runs the sweep and returns every onPoint call keyed by
// (scenario, point), failing the test on a duplicate call.
func sweepPoints(t *testing.T, ctx context.Context, sw Sweep,
	test func(int, *model.Taskset, []bool) error) (map[[2]int]Point, map[[2]int]bool, error) {

	t.Helper()
	var mu sync.Mutex
	points := make(map[[2]int]Point)
	complete := make(map[[2]int]bool)
	err := sw.Run(ctx, test, func(si, pi int, p Point, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		k := [2]int{si, pi}
		if _, dup := points[k]; dup {
			t.Errorf("scenario %d point %d reported twice", si, pi)
		}
		points[k], complete[k] = p, ok
	})
	return points, complete, err
}

// TestSweepSubsetDeterminism is the resume contract: running a subset of
// one scenario's points next to a full scenario must draw bit-identical
// tasksets to a full sweep at those points, because checkpoint/resume
// replays exactly such subsets.
func TestSweepSubsetDeterminism(t *testing.T) {
	scens := []taskgen.Scenario{sweepScenario(t, "2a"), sweepScenario(t, "2c")}
	sw := Sweep{Scenarios: scens, Methods: hashBits, Seed: 2020, Samples: 2, Workers: 3}
	full, _, err := sweepPoints(t, context.Background(), sw, hashBitsTest)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range scens {
		want += len(taskgen.UtilizationPoints(s.M))
	}
	if len(full) != want {
		t.Fatalf("full sweep reported %d points, want %d", len(full), want)
	}

	all := make([]int, len(taskgen.UtilizationPoints(scens[0].M)))
	for pi := range all {
		all[pi] = pi
	}
	sw.Points = [][]int{all, {7, 3}}
	subset, complete, err := sweepPoints(t, context.Background(), sw, hashBitsTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != len(taskgen.UtilizationPoints(scens[0].M))+2 {
		t.Fatalf("subset sweep reported %d points", len(subset))
	}
	for k, p := range subset {
		if !complete[k] {
			t.Errorf("scenario %d point %d incomplete", k[0], k[1])
		}
		if k[0] == 1 && k[1] != 3 && k[1] != 7 {
			t.Errorf("scenario 1 ran unselected point %d", k[1])
		}
		if fmt.Sprint(p) != fmt.Sprint(full[k]) {
			t.Errorf("scenario %d point %d: subset %+v != full sweep %+v", k[0], k[1], p, full[k])
		}
	}
}

// TestSweepPointCallbacks: onPoint fires exactly once per selected point,
// complete, after all of its samples; an empty selection runs nothing.
func TestSweepPointCallbacks(t *testing.T) {
	scens := []taskgen.Scenario{sweepScenario(t, "2a"), sweepScenario(t, "2b")}
	const samples = 2
	var mu sync.Mutex
	calls := 0
	points, complete, err := sweepPoints(t, context.Background(),
		Sweep{Scenarios: scens, Methods: hashBits, Seed: 1, Samples: samples, Points: [][]int{{0, 4, 9}, {}}},
		func(w int, ts *model.Taskset, v []bool) error {
			mu.Lock()
			calls++
			mu.Unlock()
			return hashBitsTest(w, ts, v)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || calls != 3*samples {
		t.Fatalf("%d points reported after %d test calls, want 3 after %d", len(points), calls, 3*samples)
	}
	for k, p := range points {
		if k[0] != 0 {
			t.Errorf("scenario %d with an empty selection reported point %d", k[0], k[1])
		}
		if !complete[k] || p.Total+p.GenFailures != samples {
			t.Errorf("point %d: complete=%v total %d + genfail %d, want %d", k[1], complete[k], p.Total, p.GenFailures, samples)
		}
	}
}

// TestSweepCancellation: a canceled context runs no test and marks no point
// complete, so no caller checkpoints or streams a partially-run point.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep starts: nothing may run
	var mu sync.Mutex
	calls := 0
	points, complete, err := sweepPoints(t, ctx,
		Sweep{Scenarios: []taskgen.Scenario{sweepScenario(t, "2a")}, Methods: hashBits, Seed: 1, Samples: 3, Points: [][]int{{0, 1}}},
		func(int, *model.Taskset, []bool) error {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep returned %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("canceled sweep ran %d tests, want 0", calls)
	}
	if len(points) != 2 {
		t.Errorf("canceled sweep drained %d points, want 2", len(points))
	}
	for k := range points {
		if complete[k] {
			t.Errorf("canceled sweep reported point %d complete", k[1])
		}
	}
}

// TestSweepTestErrorMarksOnlyItsPoint: a test error on one sample leaves
// that point incomplete (its other samples still counted) and every other
// point complete, and Run reports the smallest failing job.
func TestSweepTestErrorMarksOnlyItsPoint(t *testing.T) {
	scen := sweepScenario(t, "2a")
	utils := taskgen.UtilizationPoints(scen.M)
	const samples = 3
	failing := map[model.Hash][2]int{}
	for _, j := range [][2]int{{5, 0}, {2, 1}} {
		ts, err := GenerateSample(taskgen.NewGenerator(scen), SampleSeed(7, scen.Name(), j[0], j[1]), utils[j[0]])
		if err != nil {
			t.Fatal(err)
		}
		failing[ts.Hash()] = j
	}
	points, complete, err := sweepPoints(t, context.Background(),
		Sweep{Scenarios: []taskgen.Scenario{scen}, Methods: hashBits, Seed: 7, Samples: samples, Workers: 4},
		func(w int, ts *model.Taskset, v []bool) error {
			if j, ok := failing[ts.Hash()]; ok {
				return fmt.Errorf("injected failure at point %d", j[0])
			}
			return hashBitsTest(w, ts, v)
		})
	if err == nil || !strings.Contains(err.Error(), "point 2 sample 1: injected failure at point 2") {
		t.Errorf("Run returned %v, want the point 2 sample 1 failure", err)
	}
	if len(points) != len(utils) {
		t.Fatalf("%d points reported, want %d", len(points), len(utils))
	}
	for k, p := range points {
		bad := k[1] == 2 || k[1] == 5
		if complete[k] == bad {
			t.Errorf("point %d: complete=%v", k[1], complete[k])
		}
		if want := samples - map[bool]int{true: 1}[bad]; p.Total+p.GenFailures != want {
			t.Errorf("point %d: total %d + genfail %d, want %d", k[1], p.Total, p.GenFailures, want)
		}
	}
}
