package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dpcpp/internal/obs"
	"dpcpp/internal/store"
)

// DefaultTraceBuffer is the capacity of the request-trace ring behind
// GET /v1/debug/traces.
const DefaultTraceBuffer = 256

// obsEndpoints is the closed set of endpoint labels for the per-endpoint
// request-latency histograms. A closed set keeps the label space bounded —
// a scanner probing random paths lands in "other" instead of minting one
// time series per probe.
var obsEndpoints = []string{
	"analyze", "batch", "delta", "grid", "sweeps", "metrics", "healthz", "traces", "other",
}

// classifyEndpoint maps a request path onto the closed endpoint label set.
func classifyEndpoint(path string) string {
	switch {
	case path == "/v1/analyze":
		return "analyze"
	case path == "/v1/analyze/batch":
		return "batch"
	case path == "/v1/analyze/delta":
		return "delta"
	case path == "/v1/grid":
		return "grid"
	case path == "/v1/sweeps" || strings.HasPrefix(path, "/v1/sweeps/"):
		return "sweeps"
	case path == "/v1/metrics" || path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	case path == "/v1/debug/traces":
		return "traces"
	default:
		return "other"
	}
}

// serverObs bundles one Server's observability state: the base logger,
// the metric registry behind /metrics and /v1/metrics, the trace ring,
// and the per-endpoint latency histograms.
type serverObs struct {
	log  *slog.Logger
	reg  *obs.Registry
	ring *obs.TraceRing
	// perEndpoint holds one request-latency histogram per obsEndpoints
	// entry; built once in newServerObs and read-only afterwards, so
	// lookups need no locking.
	perEndpoint map[string]*obs.Histogram
	// accessEvery samples the access log: every accessEvery-th completed
	// request (by the accessN counter) emits one line. 0 disables.
	accessEvery int64
	accessN     atomic.Int64
}

// newServerObs builds the observability state over reg and declares the
// per-endpoint request-latency histograms in it.
func newServerObs(reg *obs.Registry, logger *slog.Logger, accessEvery int) *serverObs {
	if logger == nil {
		logger = obs.NopLogger()
	}
	o := &serverObs{
		log:         logger,
		reg:         reg,
		ring:        obs.NewTraceRing(DefaultTraceBuffer),
		perEndpoint: make(map[string]*obs.Histogram, len(obsEndpoints)),
		accessEvery: int64(accessEvery),
	}
	for _, ep := range obsEndpoints {
		o.perEndpoint[ep] = reg.Histogram("schedd_request_duration_seconds", obs.Labels("endpoint", ep),
			"HTTP request latency by endpoint.")
	}
	return o
}

// obsResponseWriter observes one response: it captures the status code and
// injects the trace's Server-Timing header at the last possible moment —
// the first header flush — so every span recorded during the handler makes
// it into the header. Flush and Unwrap forward so NDJSON streaming
// (http.Flusher) and per-write deadlines (http.ResponseController) keep
// working through the wrapper.
type obsResponseWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	status int
	wrote  bool
}

func (w *obsResponseWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
		w.Header().Set("Server-Timing", w.tr.ServerTiming())
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (w *obsResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *obsResponseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe wraps the mux dispatch with the request-observability
// middleware: a generated request ID (echoed as X-Request-ID), a trace in
// the ring carried through the context, the per-endpoint latency
// histogram, and the sampled access log.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ep := classifyEndpoint(r.URL.Path)
	id := obs.NewRequestID()
	tr := obs.NewTrace(id, ep, r.Method, r.URL.Path, start)
	s.obs.ring.Add(tr)
	ctx := obs.WithTrace(r.Context(), tr)

	ow := &obsResponseWriter{ResponseWriter: w, tr: tr}
	ow.Header().Set("X-Request-ID", id)
	s.mux.ServeHTTP(ow, r.WithContext(ctx))

	status := ow.status
	if status == 0 { // handler never wrote; net/http sends 200
		status = http.StatusOK
	}
	d := time.Since(start)
	tr.Finish(status)
	s.obs.perEndpoint[ep].Observe(d)
	if every := s.obs.accessEvery; every > 0 && s.obs.accessN.Add(1)%every == 0 {
		s.obs.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("req_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", ep),
			slog.Int("status", status),
			slog.Duration("duration", d),
		)
	}
}

// observeBreaker wires the store circuit breaker's transitions into the
// structured log: entering the open state is degraded-mode entry (warn),
// returning to closed is recovery (info), probe admissions are debug.
func (s *Server) observeBreaker(br *store.Breaker) {
	log := s.obs.log
	br.OnTransition(func(from, to string) {
		ctx := context.Background()
		switch to {
		case store.BreakerOpen:
			if from == store.BreakerClosed {
				log.LogAttrs(ctx, slog.LevelWarn, "store degraded: breaker opened, bypassing store",
					slog.String("from", from), slog.Int64("trips", br.Trips()))
			} else {
				log.LogAttrs(ctx, slog.LevelWarn, "store probe failed, breaker re-opened",
					slog.String("from", from))
			}
		case store.BreakerClosed:
			log.LogAttrs(ctx, slog.LevelInfo, "store recovered: breaker closed",
				slog.String("from", from))
		default: // half-open probe admitted
			log.LogAttrs(ctx, slog.LevelDebug, "store breaker admitting recovery probe",
				slog.String("from", from))
		}
	})
}

// TraceDump is the body of GET /v1/debug/traces: the most recent completed
// and in-flight request traces, newest first.
type TraceDump struct {
	// Total counts every trace ever added to the ring; len(Traces) is
	// bounded by the ring capacity.
	Total  int64           `json:"total"`
	Traces []obs.TraceView `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TraceDump{
		Total:  s.obs.ring.Total(),
		Traces: s.obs.ring.Snapshot(),
	})
}

// handlePromMetrics serves the Prometheus text exposition (the JSON
// counters stay at /v1/metrics).
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WriteTo(w)
}
