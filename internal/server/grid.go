package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
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
// Query parameters, resolved as a one-scenario sweep campaign
// (sweepSpec.resolve), so they default and are checked exactly like the
// fields of POST /v1/sweeps:
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
	var req SweepRequest
	var timeoutMS int64
	var err error
	if v := q.Get("scenario"); v != "" {
		req.Scenarios = []string{v}
	}
	if v := q.Get("n"); v != "" {
		req.N = new(int)
		if *req.N, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "invalid n %q (1..%d)", v, maxGridSamples)
			return
		}
	}
	if v := q.Get("seed"); v != "" {
		req.Seed = new(int64)
		if *req.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "invalid seed %q", v)
			return
		}
	}
	if v := q.Get("pathcap"); v != "" {
		if req.PathCap, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "invalid pathcap %q", v)
			return
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		if timeoutMS, err = strconv.ParseInt(v, 10, 64); err != nil || timeoutMS < 0 {
			writeError(w, http.StatusBadRequest, "invalid timeout_ms %q", v)
			return
		}
	}
	if v := q.Get("methods"); v != "" {
		req.Methods = strings.Split(v, ",")
	}
	spec := newSweepSpec(req)
	c, err := spec.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := c.points * spec.N
	if !s.admit(w, jobs) {
		return
	}
	defer s.engine.release(jobs)

	// The sweep hands each completed point to the streaming loop; a point
	// that did not run every sample (cancel/timeout) is never streamed. A
	// canceled stream stops paying for analyses (Sweep skips the work) but
	// still drains every job so admission accounting stays exact.
	done := make(chan *GridPoint, c.points)
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()

	go func() {
		defer close(done)
		// Run's error needs no handling: generation failures stream as
		// gen_failures, and a test error means ctx ended, which the
		// missing done line reports.
		_ = experiments.Sweep{
			Scenarios: c.scens,
			Methods:   c.ms,
			Seed:      spec.Seed,
			Samples:   spec.N,
			Workers:   s.cfg.Workers,
		}.Run(ctx, s.engine.sweepTest(ctx, c.ms, c.opts),
			func(_, pi int, p experiments.Point, complete bool) {
				if complete {
					done <- newGridPoint(pi, p, c.ms)
				}
			})
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scenario", c.scens[0].Name())
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
// from the result cache (one hit per cached method) or through analyze
// (flight, store, worker slot). An error means ctx ended while an analysis
// was queued, which leaves the sample's point incomplete.
func (e *engine) sweepTest(ctx context.Context, ms []analysis.Method,
	opts analysis.Options) func(int, *model.Taskset, []bool) error {

	tr := obs.TraceFromContext(ctx)
	return func(_ int, ts *model.Taskset, verdicts []bool) error {
		h := ts.Hash()
		for mi, m := range ms {
			start := time.Now()
			key, mr, ok := e.probe(h, m, opts, false)
			var err error
			if ok {
				e.cacheHits.Add(1)
				tr.AddSpan("cache", start)
			} else if mr, _, err = e.analyze(ctx, key, ts, m, opts, false); err != nil {
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

// parseScenario resolves a scenario name: a Fig. 2 subplot name or g<i>
// for the full grid.
func parseScenario(name string) (taskgen.Scenario, error) {
	if !strings.HasPrefix(name, "g") {
		return taskgen.Fig2Scenario(name)
	}
	i, err := strconv.Atoi(name[1:])
	grid := taskgen.Grid()
	if err != nil || i < 0 || i >= len(grid) {
		return taskgen.Scenario{}, fmt.Errorf("invalid grid scenario %q (g0..g%d)", name, len(grid)-1)
	}
	return grid[i], nil
}
