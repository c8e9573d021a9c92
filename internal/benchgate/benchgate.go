// Package benchgate turns `go test -bench` output into committed,
// comparable performance snapshots. A snapshot records ns/op, B/op and
// allocs/op per benchmark, aggregated over several -count runs; Compare
// gates a new snapshot against a committed baseline, failing on
// regressions beyond a noise threshold. The allocation gate is the strict
// one — allocs/op are deterministic for a fixed code path, so even small
// increases are real regressions — while the time gate uses a wide
// threshold to tolerate machine-to-machine variance and only catches
// gross slowdowns.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is the aggregated measurement of one benchmark.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Runs is how many -count repetitions fed the aggregate.
	Runs int `json:"runs"`
}

// Snapshot is the committed benchmark state of one PR.
type Snapshot struct {
	GoOS       string            `json:"goos"`
	GoArch     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// sample is one raw benchmark line before aggregation.
type sample struct {
	ns     float64
	bytes  int64
	allocs int64
}

// Parse reads `go test -bench -benchmem` output and aggregates repeated
// runs of each benchmark: median ns/op (robust against a noisy outlier
// run), minimum B/op and minimum allocs/op (the least-interference
// observation of a quantity that is constant modulo GC timing and map
// growth). Benchmark names are normalized by stripping the trailing
// -<GOMAXPROCS> suffix so snapshots compare across machines with
// different core counts.
func Parse(r io.Reader) (*Snapshot, error) {
	raw := map[string][]sample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  ns/op_value ns/op  [B/op_value B/op  allocs_value allocs/op]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := normalizeName(fields[0])
		s := sample{bytes: -1, allocs: -1}
		var err error
		if s.ns, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", line, err)
		}
		// Remaining fields are value/unit pairs; custom b.ReportMetric units
		// (e.g. "views") ride along and are ignored.
		for i := 4; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "B/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad %s value in %q: %v", unit, line, err)
			}
			if unit == "B/op" {
				s.bytes = v
			} else {
				s.allocs = v
			}
		}
		if s.allocs < 0 {
			return nil, fmt.Errorf("benchgate: %s lacks allocs/op — run with -benchmem and b.ReportAllocs()", name)
		}
		raw[name] = append(raw[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines found")
	}
	snap := &Snapshot{GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Benchmarks: make(map[string]Result, len(raw))}
	for name, ss := range raw {
		snap.Benchmarks[name] = aggregate(ss)
	}
	return snap, nil
}

// normalizeName strips the -<procs> suffix go test appends to benchmark
// names (Benchmark/sub-8 → Benchmark/sub).
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func aggregate(ss []sample) Result {
	ns := make([]float64, len(ss))
	r := Result{BytesPerOp: ss[0].bytes, AllocsPerOp: ss[0].allocs, Runs: len(ss)}
	for i, s := range ss {
		ns[i] = s.ns
		if s.bytes < r.BytesPerOp {
			r.BytesPerOp = s.bytes
		}
		if s.allocs < r.AllocsPerOp {
			r.AllocsPerOp = s.allocs
		}
	}
	sort.Float64s(ns)
	if n := len(ns); n%2 == 1 {
		r.NsPerOp = ns[n/2]
	} else {
		r.NsPerOp = (ns[n/2-1] + ns[n/2]) / 2
	}
	return r
}

// Thresholds configures the regression gate.
type Thresholds struct {
	// Time is the allowed fractional ns/op growth (0.5 = +50%). Wide by
	// default: wall time varies with the machine; the gate is for gross
	// slowdowns, the committed trajectory is for trends.
	Time float64
	// Alloc is the allowed fractional allocs/op growth, plus AllocSlack
	// absolute allocations to absorb map-bucket variance at tiny counts.
	Alloc      float64
	AllocSlack int64
}

// Regression is one gate violation.
type Regression struct {
	Benchmark string
	Metric    string // "ns/op", "allocs/op" or "coverage"
	Old, New  float64
	Limit     float64
}

func (r Regression) String() string {
	if r.Metric == "coverage" {
		return fmt.Sprintf("%s: benchmark disappeared from the run", r.Benchmark)
	}
	return fmt.Sprintf("%s: %s %.0f -> %.0f (limit %.0f)",
		r.Benchmark, r.Metric, r.Old, r.New, r.Limit)
}

// Compare gates cur against the committed baseline. Benchmarks new in cur
// pass (they will be gated once committed); benchmarks missing from cur
// fail as coverage loss. Improvements never fail.
func Compare(baseline, cur *Snapshot, th Thresholds) []Regression {
	var regs []Regression
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old := baseline.Benchmarks[name]
		now, ok := cur.Benchmarks[name]
		if !ok {
			regs = append(regs, Regression{Benchmark: name, Metric: "coverage"})
			continue
		}
		if limit := old.NsPerOp * (1 + th.Time); now.NsPerOp > limit {
			regs = append(regs, Regression{Benchmark: name, Metric: "ns/op",
				Old: old.NsPerOp, New: now.NsPerOp, Limit: limit})
		}
		allocLimit := float64(old.AllocsPerOp)*(1+th.Alloc) + float64(th.AllocSlack)
		if float64(now.AllocsPerOp) > allocLimit {
			regs = append(regs, Regression{Benchmark: name, Metric: "allocs/op",
				Old: float64(old.AllocsPerOp), New: float64(now.AllocsPerOp), Limit: allocLimit})
		}
	}
	return regs
}
