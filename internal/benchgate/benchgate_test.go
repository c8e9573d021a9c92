package benchgate

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: dpcpp
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkAnalysisMethods/DPCP-p-EP-8         	     100	    553757 ns/op	    4824 B/op	      58 allocs/op
BenchmarkAnalysisMethods/DPCP-p-EP-8         	     100	    601000 ns/op	    4900 B/op	      60 allocs/op
BenchmarkAnalysisMethods/DPCP-p-EP-8         	     100	    560111 ns/op	    4824 B/op	      58 allocs/op
BenchmarkAnalysisMethods/DPCP-p-EN-8         	     100	    118585 ns/op	         1.000 views	   28704 B/op	     244 allocs/op
PASS
ok  	dpcpp	0.080s
`

func TestParseAggregates(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := snap.Benchmarks["BenchmarkAnalysisMethods/DPCP-p-EP"]
	if !ok {
		t.Fatalf("EP benchmark missing (procs suffix not stripped?): %v", snap.Benchmarks)
	}
	if ep.Runs != 3 {
		t.Errorf("EP runs = %d, want 3", ep.Runs)
	}
	if ep.NsPerOp != 560111 { // median of the three runs
		t.Errorf("EP ns/op = %v, want median 560111", ep.NsPerOp)
	}
	if ep.AllocsPerOp != 58 || ep.BytesPerOp != 4824 { // minima
		t.Errorf("EP allocs/B = %d/%d, want 58/4824", ep.AllocsPerOp, ep.BytesPerOp)
	}
	if en := snap.Benchmarks["BenchmarkAnalysisMethods/DPCP-p-EN"]; en.Runs != 1 || en.AllocsPerOp != 244 {
		t.Errorf("EN = %+v", en)
	}
}

func TestParseRejectsMissingAllocs(t *testing.T) {
	out := "BenchmarkX-8 100 500 ns/op\n"
	if _, err := Parse(strings.NewReader(out)); err == nil {
		t.Fatal("benchmark without allocs/op must be rejected")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("empty bench output must be rejected")
	}
}

// ciThresholds mirrors cmd/benchgate's flag defaults, which CI runs with.
var ciThresholds = Thresholds{Time: 0.50, Alloc: 0.10, AllocSlack: 2}

func snapWith(name string, ns float64, allocs int64) *Snapshot {
	return &Snapshot{Benchmarks: map[string]Result{
		name: {NsPerOp: ns, AllocsPerOp: allocs, Runs: 5},
	}}
}

// TestCompareGates pins the gate semantics the CI job relies on: the
// injected-regression cases MUST fail, the within-noise cases MUST pass.
func TestCompareGates(t *testing.T) {
	th := ciThresholds // time +50%, alloc +10% and +2 absolute
	base := snapWith("BenchmarkX", 1000, 100)

	for _, tc := range []struct {
		name   string
		cur    *Snapshot
		metric string // "" = must pass
	}{
		{"unchanged", snapWith("BenchmarkX", 1000, 100), ""},
		{"improved", snapWith("BenchmarkX", 400, 10), ""},
		{"time within noise", snapWith("BenchmarkX", 1400, 100), ""},
		{"time regression", snapWith("BenchmarkX", 1600, 100), "ns/op"},
		{"alloc within noise", snapWith("BenchmarkX", 1000, 110), ""},
		{"alloc regression", snapWith("BenchmarkX", 1000, 113), "allocs/op"},
		{"coverage loss", snapWith("BenchmarkY", 1000, 100), "coverage"},
	} {
		regs := Compare(base, tc.cur, th)
		if tc.metric == "" {
			if len(regs) != 0 {
				t.Errorf("%s: unexpected regressions %v", tc.name, regs)
			}
			continue
		}
		if len(regs) != 1 || regs[0].Metric != tc.metric {
			t.Errorf("%s: got %v, want one %s regression", tc.name, regs, tc.metric)
		}
	}
}

// TestCompareSlackAtZero: a zero-alloc baseline tolerates only the
// absolute slack, so 0 -> 3 fails while 0 -> 2 passes. This is the gate
// that keeps the zero-allocation hot path at zero.
func TestCompareSlackAtZero(t *testing.T) {
	th := ciThresholds
	base := snapWith("BenchmarkZ", 1000, 0)
	if regs := Compare(base, snapWith("BenchmarkZ", 1000, 2), th); len(regs) != 0 {
		t.Errorf("within slack: %v", regs)
	}
	if regs := Compare(base, snapWith("BenchmarkZ", 1000, 3), th); len(regs) != 1 {
		t.Errorf("0 -> 3 allocs must fail, got %v", regs)
	}
}
