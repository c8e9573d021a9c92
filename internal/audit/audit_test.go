package audit

import (
	"flag"
	"math/rand"
	"path/filepath"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// smokeN sizes the tier-2 smoke audit; CI runs it (race detector on) with
// the default, large-scale hunts raise it via
// `go test ./internal/audit -run AuditSmoke -audit.n=2000`.
var smokeN = flag.Int("audit.n", 120, "tasksets checked by TestAuditSmoke")

// TestAuditSmoke is the tier-2 differential audit: adversarial tasksets,
// all five analyses, simulator cross-checks. Zero violations expected; any
// finding writes a shrunken fixture whose path the failure message names —
// move it into testdata/ and fix the underlying bug, never suppress it.
func TestAuditSmoke(t *testing.T) {
	rep, err := Run(Config{
		Count:      *smokeN,
		Seed:       2020,
		FixtureDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generated == 0 {
		t.Fatal("audit generated no tasksets; fuzzing ineffective")
	}
	certs := 0
	for _, n := range rep.Schedulable {
		certs += n
	}
	if certs == 0 || rep.SimRuns == 0 {
		t.Fatalf("audit certified nothing (certs=%d simRuns=%d); checks never engaged",
			certs, rep.SimRuns)
	}
	if len(rep.ByShape) < 3 {
		t.Errorf("only %d shapes exercised: %v", len(rep.ByShape), rep.ByShape)
	}
	if rep.DeltaChecks == 0 {
		t.Error("patch leg drove no patch chains; ApplyPatch unchecked")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s (fixture: %s)", v, v.Fixture)
	}
	t.Logf("audit: %d generated (%d gen failures), %d certified verdicts, %d sim runs, %d cross-checked, %d patch chains, shapes %v",
		rep.Generated, rep.GenFailures, certs, rep.SimRuns, rep.CrossChecks, rep.DeltaChecks, rep.ByShape)
}

// TestAuditDeterministic: identical configs yield identical reports.
func TestAuditDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		rep, err := Run(Config{Count: 20, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if a.Generated != b.Generated || a.GenFailures != b.GenFailures ||
		a.SimRuns != b.SimRuns || len(a.Violations) != len(b.Violations) {
		t.Fatalf("1-worker vs 8-worker reports diverge: %+v vs %+v", a, b)
	}
	for m, n := range a.Schedulable {
		if b.Schedulable[m] != n {
			t.Errorf("method %s: %d vs %d certified", m, n, b.Schedulable[m])
		}
	}
}

// TestReplayFixtures replays every checked-in reproduction; a non-empty
// result means a previously-fixed soundness bug regressed.
func TestReplayFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no fixtures in testdata/; the replay harness is unwired")
	}
	for _, path := range paths {
		vs, err := ReplayFixture(Config{Count: 1}, path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, v := range vs {
			t.Errorf("%s: %s", path, v)
		}
	}
}

// TestTimeBudget: a zero-duration budget must skip everything, not hang.
func TestTimeBudget(t *testing.T) {
	rep, err := Run(Config{Count: 50, Seed: 1, TimeBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Errorf("expected skipped tasksets under an expired budget, got %+v", rep)
	}
	if rep.Generated+rep.GenFailures+rep.Skipped != rep.Count {
		t.Errorf("accounting broken: %+v", rep)
	}
}

// TestShrinkMinimizes exercises the shrinking machinery with a synthetic
// predicate (no real soundness bug needed): "some task requests resource
// 0". The minimal reproduction is one single-vertex task with one request.
func TestShrinkMinimizes(t *testing.T) {
	a := taskgen.NewAdversarial()
	var ts *model.Taskset
	pred := func(c *model.Taskset) bool {
		for _, task := range c.Tasks {
			if task.NumRequests(0) > 0 {
				return true
			}
		}
		return false
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		cand, err := a.TasksetWithShape(r, taskgen.ShapeContention)
		if err == nil && pred(cand) && len(cand.Tasks) >= 2 {
			ts = cand
			break
		}
	}
	if ts == nil {
		t.Fatal("no suitable taskset generated")
	}
	min := Shrink(ts, pred)
	if !pred(min) {
		t.Fatal("shrunken taskset no longer satisfies the predicate")
	}
	if len(min.Tasks) != 1 {
		t.Errorf("shrink left %d tasks, want 1", len(min.Tasks))
	}
	if nv := len(min.Tasks[0].Vertices); nv != 1 {
		t.Errorf("shrink left %d vertices, want 1", nv)
	}
	if n := min.Tasks[0].NumRequests(0); n != 1 {
		t.Errorf("shrink left %d requests to l0, want 1", n)
	}
	// The shrunken set must survive a JSON round trip (fixture format).
	ts2, err := roundTrip(min)
	if err != nil {
		t.Fatalf("fixture round trip: %v", err)
	}
	if !pred(ts2) {
		t.Error("round-tripped fixture lost the predicate")
	}
}
