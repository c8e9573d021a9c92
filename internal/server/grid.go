package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// maxGridSamples caps the per-point sample count a single request may ask
// for; larger sweeps belong in batches of requests (and would be rejected
// by admission anyway on most configurations).
const maxGridSamples = 10000

// handleGrid streams one scenario's acceptance curve as NDJSON: one
// GridPoint line the moment the sweep completes each utilization point
// (completion order, not point order — lines carry their point index), and
// a trailing GridDone line. A stream cut by timeout_ms or a disconnect ends
// without the GridDone line and never carries a partially-run point.
// Seeding is identical to the CLI sweeps (experiments.SampleSeed), so a
// streamed curve matches `schedtest -fig` bit-for-bit for the same seed
// and sample count.
//
// Query parameters:
//
//	scenario  required: a Fig. 2 subplot ("2a".."2d") or "g<i>" for
//	          index i of the 216-scenario grid
//	n         samples per utilization point (default 25)
//	seed      base seed (default 2020)
//	methods   comma-separated method subset (default all)
//	pathcap   EP path enumeration cap (default: analysis default)
//	timeout_ms  optional stream budget in milliseconds; the server-wide
//	          -request-timeout deliberately does not apply to grid streams
//	          (long curves are legitimate), so only an explicit parameter
//	          bounds one
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	q := r.URL.Query()
	scen, err := parseScenario(q.Get("scenario"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := intParam(q.Get("n"), 25)
	if err != nil || n < 1 || n > maxGridSamples {
		writeError(w, http.StatusBadRequest, "invalid n %q (1..%d)", q.Get("n"), maxGridSamples)
		return
	}
	seed, err := int64Param(q.Get("seed"), 2020)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid seed %q", q.Get("seed"))
		return
	}
	pathCap, err := intParam(q.Get("pathcap"), 0)
	if err != nil || pathCap < 0 {
		writeError(w, http.StatusBadRequest, "invalid pathcap %q", q.Get("pathcap"))
		return
	}
	timeoutMS, err := int64Param(q.Get("timeout_ms"), 0)
	if err != nil || timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "invalid timeout_ms %q", q.Get("timeout_ms"))
		return
	}
	var methodNames []string
	if mq := q.Get("methods"); mq != "" {
		methodNames = strings.Split(mq, ",")
	}
	ms, opts, ok := s.validateOptions(w, methodNames, pathCap, "")
	if !ok {
		return
	}

	scen = scen.DefaultStructure()
	points := taskgen.UtilizationPoints(scen.M)
	jobs := len(points) * n
	if !s.admit(w, jobs) {
		return
	}
	defer s.engine.release(jobs)

	// The sweep hands each completed point to the streaming loop; a point
	// that did not run every sample (cancel/timeout) is never streamed. A
	// canceled stream stops paying for analyses (Sweep skips the work) but
	// still drains every job so admission accounting stays exact.
	done := make(chan *GridPoint, len(points))
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()

	go func() {
		defer close(done)
		// Run's error needs no handling: generation failures stream as
		// gen_failures, and a test error means ctx ended, which the
		// missing done line reports.
		_ = experiments.Sweep{
			Scenarios: []taskgen.Scenario{scen},
			Methods:   ms,
			Seed:      seed,
			Samples:   n,
			Workers:   s.cfg.Workers,
		}.Run(ctx, s.engine.sweepTest(ctx, ms, opts),
			func(_, pi int, p experiments.Point, complete bool) {
				if complete {
					done <- newGridPoint(pi, p, ms)
				}
			})
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scenario", scen.Name())
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	var writeErr error
	for gp := range done {
		// After the first failed write the client is gone: keep draining
		// completions (the sweep still owes the admission release its
		// drain), but stop encoding and flushing to a dead connection.
		if writeErr != nil {
			continue
		}
		// Each NDJSON line re-arms the write deadline: the stream may run
		// for minutes, but any single stalled write still times out.
		s.bumpWriteDeadline(w)
		if writeErr = enc.Encode(gp); writeErr != nil {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
		streamed++
	}
	// A timed-out or canceled stream ends without the GridDone line —
	// truncation is the signal clients key on.
	if ctx.Err() == nil && writeErr == nil {
		enc.Encode(GridDone{Done: true, Points: streamed})
	}
}

// sweepTest is the experiments.Sweep test of the grid stream and the
// sweep-job runner: it hashes each sample once and answers every method
// through analyze (cache, flight, store, worker slot). An error means ctx
// ended while an analysis was queued, which leaves the sample's point
// incomplete.
func (e *engine) sweepTest(ctx context.Context, ms []analysis.Method,
	opts analysis.Options) func(int, *model.Taskset, []bool) error {

	return func(_ int, ts *model.Taskset, verdicts []bool) error {
		h := ts.Hash()
		for mi, m := range ms {
			mr, _, err := e.analyze(ctx, h, ts, m, opts, false)
			if err != nil {
				return err
			}
			verdicts[mi] = mr.Schedulable
		}
		return nil
	}
}

// newGridPoint renders one completed point in wire form; unlike the
// curve's Accepted, the wire form lists every requested method, zeros
// included.
func newGridPoint(pi int, p experiments.Point, ms []analysis.Method) *GridPoint {
	gp := &GridPoint{
		Point:       pi,
		Utilization: p.Utilization,
		Normalized:  p.Normalized,
		Total:       p.Total,
		GenFailures: p.GenFailures,
		Accepted:    make(map[string]int, len(ms)),
	}
	for _, m := range ms {
		gp.Accepted[string(m)] = p.Accepted[m]
	}
	return gp
}

// parseScenario resolves the scenario query parameter: a Fig. 2 subplot
// name or g<i> for the full grid.
func parseScenario(name string) (taskgen.Scenario, error) {
	switch {
	case name == "":
		return taskgen.Scenario{}, fmt.Errorf("missing scenario parameter")
	case strings.HasPrefix(name, "g"):
		i, err := strconv.Atoi(name[1:])
		grid := taskgen.Grid()
		if err != nil || i < 0 || i >= len(grid) {
			return taskgen.Scenario{}, fmt.Errorf("invalid grid scenario %q (g0..g%d)", name, len(grid)-1)
		}
		return grid[i], nil
	default:
		return taskgen.Fig2Scenario(name)
	}
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func int64Param(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
