package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/taskgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFigGolden pins the -fig output byte-for-byte: every seed is a pure
// function of (base seed, scenario, point, sample), so a reduced-sample run
// is fully deterministic across platforms and worker counts. Fig. 2(b)'s
// m=32 sets are where augmentation rounds pile up, so its golden guards the
// rounds that stop at the first deadline miss.
func TestFigGolden(t *testing.T) {
	for _, fig := range []string{"2a", "2b"} {
		t.Run(fig, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-fig", fig, "-n", "2", "-seed", "2020"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			golden := filepath.Join("testdata", "fig"+fig+"_n2.golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("-fig %s output changed; run with -update if intended.\ngot:\n%s\nwant:\n%s",
					fig, stdout.String(), string(want))
			}
		})
	}
}

// TestTablesShape checks the -tables mode over a deterministic 2-scenario
// prefix: both tables render with every method column, and the per-scenario
// CSVs carry the documented header and one row per utilization point.
func TestTablesShape(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "curves")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-tables", "-scenarios", "2", "-n", "2", "-csv", prefix},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Table 2. Statistic for Dominance. (2 scenarios)",
		"Table 3. Statistic for Outperformance. (2 scenarios)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, m := range analysis.Methods() {
		if !strings.Contains(out, string(m)) {
			t.Errorf("output lacks method %s", m)
		}
	}

	grid := taskgen.Grid()[:2]
	for _, scen := range grid {
		path := fmt.Sprintf("%s_%s.csv", prefix, scen.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("per-scenario CSV missing: %v", err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantHeader := []string{"utilization", "normalized", "tasksets"}
		for _, m := range analysis.Methods() {
			wantHeader = append(wantHeader, string(m))
		}
		if got := strings.Join(rows[0], ","); got != strings.Join(wantHeader, ",") {
			t.Errorf("%s: header %q, want %q", path, got, strings.Join(wantHeader, ","))
		}
		if wantRows := len(taskgen.UtilizationPoints(scen.M)) + 1; len(rows) != wantRows {
			t.Errorf("%s: %d rows, want %d", path, len(rows), wantRows)
		}
	}
}

// TestAuditMode smokes the -audit flag: a small run must complete cleanly,
// write a well-formed JSON report and exit 0 (zero violations).
func TestAuditMode(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-audit", "-n", "30", "-seed", "2020",
		"-report", report, "-fixtures", filepath.Join(dir, "fixtures")},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "zero invariant violations") {
		t.Errorf("missing clean verdict:\n%s", stdout.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Generated  int               `json:"generated"`
		Violations []json.RawMessage `json:"violations"`
		SimRuns    int64             `json:"sim_runs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Generated != 30 || len(rep.Violations) != 0 || rep.SimRuns == 0 {
		t.Errorf("unexpected report: %s", data)
	}
}

// TestBadFlags: unknown methods and missing modes exit 2 without panicking.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-methods", "NOPE", "-fig", "2a"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown method: exit %d, want 2", code)
	}
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no mode: exit %d, want 2", code)
	}
	if code := run([]string{"-fig", "9z"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad subplot: exit %d, want 2", code)
	}
}
