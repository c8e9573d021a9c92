package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

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
// GridPoint line the moment the pool completes each utilization point
// (completion order, not point order — lines carry their point index), and
// a trailing GridDone line. Seeding is identical to the CLI sweeps
// (experiments.SampleSeed), so a streamed curve matches `schedtest -fig`
// bit-for-bit for the same seed and sample count.
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

	// Per-point completion tracking: workers fold verdicts into atomic
	// counters (sweepPointState) and the sweep hands the point index to
	// the streaming loop when its last sample lands. A canceled stream
	// stops paying for analyses (ScenarioSweep skips the work) but still
	// drains every index so admission accounting stays exact.
	states := newSweepPointStates(len(points), len(ms))
	done := make(chan int, len(points))
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()

	go func() {
		defer close(done)
		experiments.ScenarioSweep{
			Scenario: scen,
			Seed:     seed,
			Samples:  n,
			Workers:  s.cfg.Workers,
		}.Run(ctx,
			func(pi, si int, ts *model.Taskset, genErr error) {
				states[pi].analyze(ctx, s.engine, ts, genErr, ms, opts)
			},
			func(pi int, complete bool) { done <- pi })
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scenario", scen.Name())
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	var writeErr error
	for pi := range done {
		// After the first failed write the client is gone: keep draining
		// completions (the sweep still owes the admission release its
		// drain), but stop encoding and flushing to a dead connection.
		if writeErr != nil {
			continue
		}
		// A point whose in-flight analyses were abandoned (cancel/timeout
		// mid-sample) holds an undercounted curve; never stream it.
		if states[pi].aborted.Load() > 0 {
			continue
		}
		// Each NDJSON line re-arms the write deadline: the stream may run
		// for minutes, but any single stalled write still times out.
		s.bumpWriteDeadline(w)
		gp := states[pi].gridPoint(pi, points[pi], scen.M, ms)
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

// sweepPointState accumulates one utilization point's verdicts across its
// samples; shared by the streaming grid endpoint and the sweep-job runner.
type sweepPointState struct {
	accepted []atomic.Int64 // indexed like the method slice
	genFail  atomic.Int64
	total    atomic.Int64
	// aborted counts samples whose analysis was abandoned (context
	// canceled or deadline exceeded mid-flight). Any aborted sample makes
	// the point's counts undercounted, so consumers must treat the point
	// as incomplete: the grid stream skips it and the sweep-job runner
	// refuses to checkpoint it — otherwise a canceled last sample could
	// freeze a wrong curve into a checkpoint and break byte-identical
	// resume.
	aborted atomic.Int64
}

func newSweepPointStates(points, methods int) []sweepPointState {
	states := make([]sweepPointState, points)
	for pi := range states {
		states[pi].accepted = make([]atomic.Int64, methods)
	}
	return states
}

// analyze folds one sample into the point: every requested method's verdict
// for the generated taskset, or a generation failure. An engine error (the
// context ended while this sample's analysis was queued) marks the point
// aborted instead of silently dropping a verdict.
func (st *sweepPointState) analyze(ctx context.Context, e *engine, ts *model.Taskset,
	genErr error, ms []analysis.Method, opts analysis.Options) {

	if genErr != nil {
		st.genFail.Add(1)
		return
	}
	h := ts.Hash()
	for mi, m := range ms {
		mr, _, err := e.analyze(ctx, h, ts, m, opts, false)
		if err != nil {
			st.aborted.Add(1)
			return
		}
		if mr.Schedulable {
			st.accepted[mi].Add(1)
		}
	}
	st.total.Add(1)
}

// gridPoint renders the accumulated counts as the wire form.
func (st *sweepPointState) gridPoint(pi int, util float64, m int, ms []analysis.Method) *GridPoint {
	gp := &GridPoint{
		Point:       pi,
		Utilization: util,
		Normalized:  util / float64(m),
		Total:       int(st.total.Load()),
		GenFailures: int(st.genFail.Load()),
		Accepted:    make(map[string]int, len(ms)),
	}
	for mi, meth := range ms {
		gp.Accepted[string(meth)] = int(st.accepted[mi].Load())
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
