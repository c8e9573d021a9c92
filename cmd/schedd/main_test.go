package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/server"
	"dpcpp/internal/taskgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stderr, nil); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
}

// TestServeAndGracefulShutdown boots the real daemon on an ephemeral port,
// hits it over TCP and shuts it down with the signal production uses.
func TestServeAndGracefulShutdown(t *testing.T) {
	ready := make(chan string, 1)
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never came up; stderr: %s", stderr.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body, err := os.ReadFile(filepath.Join("testdata", "fig2a_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post("http://"+addr+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ar server.AnalyzeResponse
	err = json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(ar.Results) != 5 {
		t.Fatalf("analyze over TCP: status %d err %v results %d", resp.StatusCode, err, len(ar.Results))
	}

	// SIGTERM is what production sends; NotifyContext catches it in-process.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("shutdown exit %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("graceful shutdown hung; stderr: %s", stderr.String())
	}
}

// TestAnalyzeResponseGolden pins the served bytes for the checked-in
// request fixtures: the fig2a taskset, and the Sec. VI light-task set
// that DPCP-p schedules by packing its three light tasks onto two
// processors. The same pairs drive the CI smoke job with curl, so this
// test is the in-repo guarantee the smoke job's goldens stay reachable.
func TestAnalyzeResponseGolden(t *testing.T) {
	for _, name := range []string{"fig2a", "light"} {
		t.Run(name, func(t *testing.T) {
			body, err := os.ReadFile(filepath.Join("testdata", name+"_request.json"))
			if err != nil {
				t.Fatal(err)
			}
			s, err := server.New(server.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}

			golden := filepath.Join("testdata", name+"_response.golden")
			if *update {
				if err := os.WriteFile(golden, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("served response changed; run with -update if intended.\ngot:\n%s\nwant:\n%s",
					w.Body.String(), string(want))
			}
		})
	}
}

// TestSweepMatchesSchedtestGolden is the sweep-job acceptance test: a
// sweep submitted via POST /v1/sweeps covering Fig. 2(a) must produce
// curves byte-identical to the cmd/schedtest fig2a golden — the
// asynchronous job path, the streaming grid path and the CLI are all the
// same experiment.
func TestSweepMatchesSchedtestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "schedtest", "testdata", "fig2a_n2.golden"))
	if err != nil {
		t.Fatal(err)
	}

	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps",
		strings.NewReader(`{"scenarios":["2a"],"n":2,"seed":2020}`)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", w.Code, w.Body.String())
	}
	var acc server.SweepAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}

	var res server.SweepResults
	deadline := time.Now().Add(60 * time.Second)
	for {
		w = httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+acc.ID+"/results", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("results: %d", w.Code)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.State == "done" {
			break
		}
		if res.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("sweep never finished: state %q", res.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	scen = scen.DefaultStructure()
	curve := &experiments.Curve{Scenario: scen, Methods: analysis.Methods()}
	for pi, gp := range res.Scenarios[0].Points {
		pt := experiments.Point{
			Utilization: taskgen.UtilizationPoints(scen.M)[pi],
			Normalized:  taskgen.UtilizationPoints(scen.M)[pi] / float64(scen.M),
			Total:       gp.Total,
			Accepted:    make(map[analysis.Method]int),
		}
		for m, n := range gp.Accepted {
			pt.Accepted[analysis.Method(m)] = n
		}
		curve.Points = append(curve.Points, pt)
	}
	got := fmt.Sprintf("Fig. 2(a): acceptance ratio vs normalized utilization\n%s",
		experiments.FormatCurve(curve))
	if got != string(want) {
		t.Errorf("sweep job diverges from the schedtest golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGridMatchesSchedtestGolden reconstructs the Fig. 2(a) acceptance
// table from the server's NDJSON stream and diffs the verdicts against the
// cmd/schedtest golden file: the service and the CLI must be the same
// experiment.
func TestGridMatchesSchedtestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "schedtest", "testdata", "fig2a_n2.golden"))
	if err != nil {
		t.Fatal(err)
	}

	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := httptest.NewRequest(http.MethodGet, "/v1/grid?scenario=2a&n=2&seed=2020", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}

	// Rebuild an experiments.Curve from the stream and render it with the
	// CLI's own formatter.
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	scen = scen.DefaultStructure()
	curve := &experiments.Curve{Scenario: scen, Methods: analysis.Methods()}
	for _, u := range taskgen.UtilizationPoints(scen.M) {
		curve.Points = append(curve.Points, experiments.Point{
			Utilization: u,
			Normalized:  u / float64(scen.M),
			Accepted:    make(map[analysis.Method]int),
		})
	}
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawDone := false
	for sc.Scan() {
		var gd server.GridDone
		if json.Unmarshal(sc.Bytes(), &gd) == nil && gd.Done {
			sawDone = true
			continue
		}
		var gp server.GridPoint
		if err := json.Unmarshal(sc.Bytes(), &gp); err != nil {
			t.Fatalf("bad line %q: %v", sc.Bytes(), err)
		}
		pt := &curve.Points[gp.Point]
		pt.Total = gp.Total
		for m, n := range gp.Accepted {
			pt.Accepted[analysis.Method(m)] = n
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}

	got := fmt.Sprintf("Fig. 2(a): acceptance ratio vs normalized utilization\n%s",
		experiments.FormatCurve(curve))
	if got != string(want) {
		t.Errorf("server grid diverges from the schedtest golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, scen.Name()) {
		t.Errorf("scenario name missing from rendered table")
	}
}
