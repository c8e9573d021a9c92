// Command schedtest regenerates the paper's evaluation artifacts and runs
// the differential soundness audit:
//
//	schedtest -fig 2a                  one Fig. 2 subplot (text + optional CSV)
//	schedtest -tables                  Tables 2 and 3 over the 216-scenario grid
//	schedtest -tables -scenarios 24    a deterministic subset of the grid
//	schedtest -ablation placement      WFD vs FFD resource placement
//	schedtest -audit -n 2000           adversarial fuzz + simulator cross-check
//
// Sample counts are configurable; the paper does not state its per-point
// taskset count, so -n controls the accuracy/runtime trade-off (under
// -audit, -n is the number of adversarial tasksets).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/audit"
	"dpcpp/internal/experiments"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
	"dpcpp/internal/taskgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes one mode and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "", "regenerate one Fig. 2 subplot: 2a, 2b, 2c or 2d")
		tables    = fs.Bool("tables", false, "regenerate Tables 2 and 3 over the scenario grid")
		scenarios = fs.Int("scenarios", 216, "number of grid scenarios to run (deterministic prefix)")
		n         = fs.Int("n", 25, "tasksets per utilization point (-audit: tasksets to fuzz)")
		seed      = fs.Int64("seed", 2020, "base seed")
		pathCap   = fs.Int("pathcap", analysis.DefaultPathCap, "EP path enumeration cap")
		csvPath   = fs.String("csv", "", "also write curve(s) as CSV to this file (or prefix for -tables)")
		ablation  = fs.String("ablation", "", "run an ablation: placement")
		methods   = fs.String("methods", "", "comma-separated method subset (default: all)")
		doAudit   = fs.Bool("audit", false, "run the differential soundness audit")
		budget    = fs.Duration("budget", 0, "audit time budget (0 = none)")
		report    = fs.String("report", "", "write the audit report as JSON to this file")
		fixtures  = fs.String("fixtures", "audit-fixtures", "directory for shrunken audit counterexamples")

		logLevel  = fs.String("log-level", "warn", "stderr log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "stderr log format: text or json")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "schedtest "+obs.BuildInfo().String())
		return 0
	}
	// Structured logs go to stderr only; every artifact (curves, tables,
	// audit verdicts) stays on stdout, byte-identical with logging off.
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var names []string
	if *methods != "" {
		names = strings.Split(*methods, ",")
	}
	ms, err := analysis.ParseMethods(names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tmpl := experiments.Campaign{
		TasksetsPerPoint: *n,
		Seed:             *seed,
		Options:          analysis.Options{PathCap: *pathCap},
		Methods:          ms,
	}

	mode := "usage"
	switch {
	case *doAudit:
		mode = "audit"
	case *fig != "":
		mode = "fig"
	case *tables:
		mode = "tables"
	case *ablation == "placement":
		mode = "ablation"
	}
	start := time.Now()
	logger.Info("schedtest run", "mode", mode, "n", *n, "seed", *seed, "pathcap", *pathCap)
	defer func() {
		logger.Info("schedtest done", "mode", mode, "elapsed", time.Since(start).String())
	}()

	switch mode {
	case "audit":
		return runAudit(audit.Config{
			Count:      *n,
			Seed:       *seed,
			Methods:    ms,
			TimeBudget: *budget,
			FixtureDir: *fixtures,
			PathCap:    *pathCap,
		}, *report, stdout, stderr)
	case "fig":
		return runFig(tmpl, *fig, *csvPath, stdout, stderr)
	case "tables":
		return runTables(tmpl, *scenarios, *csvPath, stdout, stderr)
	case "ablation":
		return runPlacementAblation(tmpl, stdout, stderr)
	default:
		fs.Usage()
		return 2
	}
}

// runAudit fuzzes adversarial tasksets and cross-checks every analysis
// against the simulator; see internal/audit for the invariants. Exit code 1
// signals at least one violation (each with a shrunken fixture on disk).
func runAudit(cfg audit.Config, reportPath string, stdout, stderr io.Writer) int {
	start := time.Now()
	rep, err := audit.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	certs := 0
	for _, c := range rep.Schedulable {
		certs += c
	}
	fmt.Fprintf(stdout, "audit: %d tasksets (%d generation failures, %d skipped) in %.1fs\n",
		rep.Generated, rep.GenFailures, rep.Skipped, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "shapes: %v\n", rep.ByShape)
	fmt.Fprintf(stdout, "certified verdicts: %d (%v)\n", certs, rep.Schedulable)
	fmt.Fprintf(stdout, "simulator runs: %d, cross-checked tasksets: %d, delta patch chains: %d\n",
		rep.SimRuns, rep.CrossChecks, rep.DeltaChecks)
	if rep.TimedOut {
		fmt.Fprintln(stdout, "time budget exhausted before all tasksets ran")
	}
	if reportPath != "" {
		if err := writeJSON(reportPath, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "wrote %s\n", reportPath)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(stdout, "VIOLATIONS: %d\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(stdout, "  %s\n    fixture: %s\n", v, v.Fixture)
		}
		fmt.Fprintln(stdout, "each fixture is a shrunken reproduction; replay it with the")
		fmt.Fprintln(stdout, "internal/audit TestReplayFixtures harness after moving it into")
		fmt.Fprintln(stdout, "internal/audit/testdata/, and fix the underlying bug — never suppress it")
		return 1
	}
	fmt.Fprintln(stdout, "zero invariant violations")
	return 0
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runFig(tmpl experiments.Campaign, sub, csvPath string, stdout, stderr io.Writer) int {
	scen, err := taskgen.Fig2Scenario(sub)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tmpl.Scenario = scen
	curve, err := tmpl.Run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "Fig. 2(%s): acceptance ratio vs normalized utilization\n", strings.TrimPrefix(sub, "2"))
	fmt.Fprint(stdout, experiments.FormatCurve(curve))
	return writeCSV(csvPath, curve, stderr)
}

func runTables(tmpl experiments.Campaign, limit int, csvPrefix string, stdout, stderr io.Writer) int {
	grid := taskgen.Grid()
	if limit < len(grid) {
		grid = grid[:limit]
	}
	fmt.Fprintf(stdout, "running %d scenarios x %d points x %d tasksets...\n",
		len(grid), len(taskgen.UtilizationPoints(grid[0].M)), tmpl.TasksetsPerPoint)
	// One shared worker pool drains the whole grid; scenarios finish in
	// work-pool order, so progress reports completion counts. Each
	// scenario's CSV is persisted the moment it completes (callbacks fire
	// once per scenario, for distinct files), so an interrupted multi-hour
	// sweep keeps every finished curve.
	var done atomic.Int64
	var csvErr atomic.Bool
	curves, err := experiments.RunGridProgress(tmpl, grid,
		func(i int, c *experiments.Curve) {
			if csvPrefix != "" {
				if writeCSV(fmt.Sprintf("%s_%s.csv", csvPrefix, grid[i].Name()), c, stderr) != 0 {
					csvErr.Store(true)
				}
			}
			fmt.Fprintf(stderr, "\r%d/%d %s", done.Add(1), len(grid), grid[i].Name())
		})
	fmt.Fprintln(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A failed per-scenario CSV write must not discard the sweep: print
	// the aggregate tables regardless, then exit nonzero.
	g := experiments.Aggregate(curves, tmpl.Methods)
	fmt.Fprint(stdout, experiments.FormatGrid(g))
	if csvErr.Load() {
		fmt.Fprintln(stderr, "one or more per-scenario CSV writes failed")
		return 1
	}
	return 0
}

func runPlacementAblation(tmpl experiments.Campaign, stdout, stderr io.Writer) int {
	scen, _ := taskgen.Fig2Scenario("2b") // heavy contention shows placement effects
	fmt.Fprintln(stdout, "ablation: WFD (Algorithm 2) vs FFD resource placement, scenario", scen.Name())
	for _, h := range []partition.PlacementHeuristic{partition.WFD, partition.FFD} {
		c := tmpl
		c.Scenario = scen
		c.Methods = []analysis.Method{analysis.DPCPpEP}
		c.Options.Placement = h
		curve, err := c.Run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		name := "WFD"
		if h == partition.FFD {
			name = "FFD"
		}
		fmt.Fprintf(stdout, "--- %s: %d tasksets accepted over the sweep\n",
			name, curve.TotalAccepted(analysis.DPCPpEP))
		fmt.Fprint(stdout, experiments.FormatCurve(curve))
	}
	return 0
}

func writeCSV(path string, curve *experiments.Curve, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	if err := experiments.WriteCurveCSV(f, curve); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return 0
}
