// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of its standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Untraced runs (-trace 0) report every end-to-end metric of spec.go;
// traced runs (-trace 1) report every per-layer metric, and write their
// spans under the build directory. Inputs derive from -seed only. The run
// exits 1 when any output fails its correctness check.
//
// Run it from the root of a checkout through its build script:
//
//	bash perfbench/run.sh --workload serve-repeat --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// work is a per-process scratch directory inside the checkout; the
	// serve workloads root their result stores there.
	work string
}

// runners maps each workload to its untraced and traced runners. A traced
// runner measures within the budget it is given and records spans on tr.
var runners = map[string]struct {
	e2e    func(runConfig) (*outcome, error)
	traced func(runConfig, time.Duration, *tracer) (*outcome, error)
}{
	"fig2-sweep":   {runSweep, tracedSweep},
	"serve-repeat": {runRepeat, tracedRepeat},
	"serve-whatif": {runWhatif, tracedWhatif},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -describe)")
	seed := fs.Int64("seed", 1, "seed the inputs derive from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	describe := fs.Bool("describe", false, "print the workloads, metrics and load parameters as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(description()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if _, ok := findWorkload(*name); !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of a checkout: %v\n", err)
		return 2
	}

	work := filepath.Join(buildDir(), "perfbench-work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: work}

	var out *outcome
	var err error
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		out, err = runTraced(*name, cfg)
	} else {
		out, err = runners[*name].e2e(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stderr, n)
	}
	res, err := out.result(want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(stderr, "INCORRECT:", p)
		}
		return 1
	}
	return 0
}

// runTraced gives the named workload 70% of the time to measure its own
// layers on its own traffic, and each other workload 15% to measure the
// layers only its traffic reaches, so every traced run reports every
// per-layer metric. The named workload's values win where both measured.
func runTraced(name string, cfg runConfig) (*outcome, error) {
	tr := newTracer()
	total := newOutcome()
	order := []string{name}
	for _, w := range workloads {
		if w.Name != name {
			order = append(order, w.Name)
		}
	}
	for i, w := range order {
		budget := cfg.seconds * 15 / 100
		if i == 0 {
			budget = cfg.seconds * 70 / 100
		}
		out, err := runners[w].traced(cfg, budget, tr)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", w, err)
		}
		total.merge(out, i == 0)
	}
	path := tracePath(name, cfg.seed)
	if err := tr.writeTo(path); err != nil {
		return nil, err
	}
	total.note("spans written to %s", path)
	return total, nil
}

// outcome accumulates one run's metrics, operation counts and correctness
// problems.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	problems          []string
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// attempt counts n operations of which failed did not succeed.
func (o *outcome) attempt(n, failed int) {
	o.attempted += n
	o.failed += failed
}

// problem records a correctness failure that is not itself an operation.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check counts one verified output; a false ok is a failed operation and a
// correctness problem.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problem(format, args...)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// finishSuccess sets success_ratio from the operation counts.
func (o *outcome) finishSuccess() {
	if o.attempted > 0 {
		o.set("success_ratio", float64(o.attempted-o.failed)/float64(o.attempted))
	}
}

// merge folds another outcome in; its values replace ours only when
// override is set or we lack them.
func (o *outcome) merge(x *outcome, override bool) {
	o.attempted += x.attempted
	o.failed += x.failed
	o.problems = append(o.problems, x.problems...)
	o.notes = append(o.notes, x.notes...)
	for k, v := range x.values {
		if _, ok := o.values[k]; override || !ok {
			o.values[k] = v
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the printed object from exactly the wanted metrics; a
// missing or non-finite value is a benchmark bug.
func (o *outcome) result(want []metric) (result, error) {
	r := result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := o.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured (value %v)", m.Name, v)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
	}
	return r, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// buildDir is the directory build outputs go to, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// description is the -describe document: everything spec.go fixes.
func description() any {
	type rung struct {
		Workload   string  `json:"workload"`
		NominalRPS float64 `json:"nominal_rps"`
		Step       float64 `json:"step"`
		MinK       int     `json:"min_k"`
		MaxK       int     `json:"max_k"`
	}
	var ladders []rung
	for _, w := range workloads {
		if w.NominalRPS > 0 {
			ladders = append(ladders, rung{w.Name, w.NominalRPS, ladderStep, ladderMinK, ladderMaxK})
		}
	}
	return map[string]any{
		"workloads":    workloads,
		"end_to_end":   endToEnd,
		"per_layer":    perLayer,
		"p99_limit_ms": durMS(sloP99),
		"ladders":      ladders,
		"workers":      workers,
		"connections":  maxConns,
	}
}
