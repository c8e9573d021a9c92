package experiments

import (
	"strings"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// fastScenario keeps DAGs small so the full pipeline runs quickly in tests.
func fastScenario() taskgen.Scenario {
	return taskgen.Scenario{
		M:          8,
		NumRes:     taskgen.IntRange{Lo: 2, Hi: 4},
		UAvg:       1.5,
		PAccess:    0.5,
		NReq:       taskgen.IntRange{Lo: 1, Hi: 10},
		CSLen:      taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
		VertsRange: taskgen.IntRange{Lo: 8, Hi: 20},
		EdgeProb:   0.1,
		PeriodLo:   10 * rt.Millisecond,
		PeriodHi:   100 * rt.Millisecond,
	}
}

func fastCampaign() Campaign {
	return Campaign{
		Scenario:         fastScenario(),
		TasksetsPerPoint: 6,
		Seed:             1,
	}
}

func TestCampaignRunShape(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) == 0 {
		t.Fatal("no points")
	}
	for i, pt := range curve.Points {
		if pt.Total != 6 {
			t.Errorf("point %d: Total = %d, want 6", i, pt.Total)
		}
		if pt.Normalized < 0 || pt.Normalized > 1.0001 {
			t.Errorf("point %d: normalized %g out of range", i, pt.Normalized)
		}
		for _, m := range curve.Methods {
			if n := pt.Accepted[m]; n < 0 || n > pt.Total {
				t.Errorf("point %d method %s: accepted %d of %d", i, m, n, pt.Total)
			}
		}
	}
}

func TestCampaignMonotoneTrends(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	// At the lowest utilization every method should accept nearly all
	// tasksets; at U/m = 1 (total utilization = m) acceptance must be 0
	// for every method (no spare capacity for blocking or even for the
	// federated assignment itself).
	first, last := 0, len(curve.Points)-1
	for _, m := range curve.Methods {
		if r := curve.Ratio(m, first); r < 0.5 {
			t.Errorf("%s: acceptance at lowest utilization = %g, want >= 0.5", m, r)
		}
		if r := curve.Ratio(m, last); r > 0.5 {
			t.Errorf("%s: acceptance at full utilization = %g, want <= 0.5", m, r)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		for _, m := range a.Methods {
			if a.Points[i].Accepted[m] != b.Points[i].Accepted[m] {
				t.Fatalf("nondeterministic results at point %d method %s: %d vs %d",
					i, m, a.Points[i].Accepted[m], b.Points[i].Accepted[m])
			}
		}
	}
}

func TestFedFPEnvelopeOnCurve(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range curve.Points {
		fed := curve.Ratio(analysis.FEDFP, i)
		for _, m := range []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN, analysis.SPIN, analysis.LPP} {
			if curve.Ratio(m, i) > fed+1e-9 {
				t.Errorf("point %d: %s ratio %g exceeds FED-FP envelope %g",
					i, m, curve.Ratio(m, i), fed)
			}
		}
	}
}

func TestEPDominatesENOnCurve(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range curve.Points {
		if curve.Ratio(analysis.DPCPpEP, i) < curve.Ratio(analysis.DPCPpEN, i) {
			t.Errorf("point %d: EP ratio below EN ratio", i)
		}
	}
}

func TestDominanceAndOutperformance(t *testing.T) {
	// Hand-build a curve to verify the definitions exactly.
	mA, mB, mC := analysis.Method("A"), analysis.Method("B"), analysis.Method("C")
	c := &Curve{Methods: []analysis.Method{mA, mB, mC}}
	add := func(a, b, cc int) {
		c.Points = append(c.Points, Point{
			Total:    10,
			Accepted: map[analysis.Method]int{mA: a, mB: b, mC: cc},
		})
	}
	add(10, 10, 9)
	add(8, 6, 9)
	add(4, 4, 3)

	if !Dominates(c, mA, mB) {
		t.Error("A must dominate B (never lower, higher once)")
	}
	if Dominates(c, mB, mA) {
		t.Error("B must not dominate A")
	}
	if Dominates(c, mA, mC) || Dominates(c, mC, mA) {
		t.Error("A and C cross; neither dominates")
	}
	if !Outperforms(c, mA, mB) {
		t.Error("A (22) must outperform B (20)")
	}
	if !Outperforms(c, mA, mC) {
		t.Error("A (22) must outperform C (21)")
	}
	if Outperforms(c, mB, mA) {
		t.Error("B must not outperform A")
	}

	g := Aggregate([]*Curve{c}, c.Methods)
	if g.Dominance[mA][mB] != 1 || g.Dominance[mB][mA] != 0 {
		t.Errorf("aggregate dominance wrong: %v", g.Dominance)
	}
	if g.Outperformance[mA][mC] != 1 {
		t.Errorf("aggregate outperformance wrong: %v", g.Outperformance)
	}
}

func TestWriteCurveCSV(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCurveCSV(&b, curve); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(curve.Points)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(curve.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "utilization,normalized,tasksets,DPCP-p-EP") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestFormatCurveAndTables(t *testing.T) {
	curve, err := fastCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	text := FormatCurve(curve)
	if !strings.Contains(text, "DPCP-p-EP") || !strings.Contains(text, "U/m") {
		t.Errorf("FormatCurve missing columns:\n%s", text)
	}
	g := Aggregate([]*Curve{curve}, curve.Methods)
	tables := FormatGrid(g)
	if !strings.Contains(tables, "Table 2") || !strings.Contains(tables, "Table 3") {
		t.Errorf("FormatGrid output incomplete:\n%s", tables)
	}
	if !strings.Contains(tables, "N/A") {
		t.Error("diagonal must render N/A")
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %g", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1,0) = %g", got)
	}
}

func TestSeedForIsStable(t *testing.T) {
	a := SampleSeed(1, "scen", 2, 3)
	b := SampleSeed(1, "scen", 2, 3)
	if a != b {
		t.Error("seedFor not deterministic")
	}
	if SampleSeed(1, "scen", 2, 4) == a || SampleSeed(2, "scen", 2, 3) == a {
		t.Error("seedFor collisions across inputs")
	}
}

func TestRunGridSubset(t *testing.T) {
	scens := []taskgen.Scenario{fastScenario()}
	tmpl := fastCampaign()
	tmpl.TasksetsPerPoint = 3
	curves, err := RunGrid(tmpl, scens)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 1 {
		t.Fatalf("got %d curves", len(curves))
	}
}
