package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
)

// errUnknownBase reports a delta request whose base hash has no retained
// incremental state and whose body carried no base_taskset to rebuild it
// from. The handler maps it to a structured 400 telling the client to
// re-send with base_taskset (one-time cost; subsequent patches hit state).
var errUnknownBase = errors.New("no retained state for base taskset")

// wireResult converts an analysis verdict to its cache/wire form.
func wireResult(res partition.Result) *MethodResult {
	return &MethodResult{
		Schedulable: res.Schedulable,
		WCRT:        res.WCRT,
		Rounds:      res.Rounds,
		Reason:      res.Reason,
	}
}

// analyzeDelta answers one method of a POST /v1/analyze/delta request: it
// resolves the base's retained incremental state (running — and retaining —
// a full base analysis when the body supplied base_taskset and no state
// exists), applies the patch, and analyzes the patched taskset through
// analysis.Delta.ApplyTo. The patched taskset's canonical hash addresses
// the SAME result cache as /v1/analyze, so a delta result and a
// from-scratch analysis of the identical edited taskset share entries and
// coalesce onto one flight. A successful run chains fresh state under the
// patched hash, keeping patch sequences incremental.
//
// The returned stats are non-nil only when this call executed the
// incremental analysis itself (not when the result came from a cache,
// store, or coalesced flight).
func (e *engine) analyzeDelta(ctx context.Context, baseHash model.Hash, baseTS *model.Taskset,
	p model.Patch, m analysis.Method, opts analysis.Options) (model.Hash, *MethodResult, *analysis.DeltaStats, error) {

	tr := obs.TraceFromContext(ctx)
	skey := cacheKey(baseHash, m, opts, false)
	d, ok := e.deltaStates.get(skey)
	if ok {
		e.deltaHits.Add(1)
	} else {
		if baseTS == nil {
			return model.Hash{}, nil, nil, errUnknownBase
		}
		e.deltaFallbacks.Add(1)
		// Full base analysis, retaining fresh state. It occupies a worker
		// slot like any analysis and lands the base verdict in the shared
		// result cache, so a later /v1/analyze of the base is a cache hit.
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return model.Hash{}, nil, nil, ctx.Err()
		}
		e.analyses.Add(1)
		start := time.Now()
		sc := e.scratch.Get().(*analysis.Scratch)
		res, nd := analysis.NewDelta(sc, m, baseTS, opts)
		e.scratch.Put(sc)
		<-e.slots
		e.latency.Observe(time.Since(start))
		tr.AddSpan("delta-base", start)
		e.cache.add(skey, wireResult(res))
		if nd == nil {
			// Unschedulable base (or a method with no incremental form):
			// nothing to patch from, so the patched taskset is analyzed
			// from scratch through the ordinary engine path.
			patched, _, err := model.ApplyPatch(baseTS, p)
			if err != nil {
				return model.Hash{}, nil, nil, err
			}
			ph := patched.Hash()
			mr, err := e.analyze(ctx, ph, patched, m, opts, false)
			return ph, mr, nil, err
		}
		e.deltaStates.add(skey, nd)
		d = nd
	}

	patchStart := time.Now()
	patched, pd, err := model.ApplyPatch(d.Base(), p)
	if err != nil {
		return model.Hash{}, nil, nil, err
	}
	ph := patched.Hash()
	tr.AddSpan("patch", patchStart)

	pkey := cacheKey(ph, m, opts, false)
	cacheStart := time.Now()
	if v, ok := e.cache.get(pkey); ok {
		e.cacheHits.Add(1)
		tr.AddSpan("cache", cacheStart)
		return ph, v, nil, nil
	}
	e.cacheMisses.Add(1)

	var stats *analysis.DeltaStats
	flightStart := time.Now()
	v, err, shared := e.flight.do(ctx, pkey, func(fctx context.Context) (*MethodResult, error) {
		if v, ok := e.cache.get(pkey); ok {
			return v, nil
		}
		if mr := e.storeGet(pkey); mr != nil {
			e.cache.add(pkey, mr)
			return mr, nil
		}
		select {
		case e.slots <- struct{}{}:
		case <-fctx.Done():
			return nil, fctx.Err()
		}
		defer func() { <-e.slots }()
		e.analyses.Add(1)
		start := time.Now()
		sc := e.scratch.Get().(*analysis.Scratch)
		res, st, next := d.ApplyTo(sc, patched, pd)
		e.scratch.Put(sc)
		e.latency.Observe(time.Since(start))
		tr.AddSpan("delta-analysis", start)
		stats = &st
		mr := wireResult(res)
		e.cache.add(pkey, mr)
		e.storePut(pkey, mr)
		if next != nil {
			// Chain: the patched taskset becomes a ready base for the next
			// patch in the sequence, under its own content address.
			e.deltaStates.add(cacheKey(ph, m, opts, false), next)
		}
		return mr, nil
	})
	if shared {
		e.coalesced.Add(1)
		tr.AddSpan("flight", flightStart)
	}
	if err != nil {
		e.noteAbort(err)
		return model.Hash{}, nil, nil, err
	}
	return ph, v, stats, nil
}

// parseHash decodes a canonical taskset hash (64 lowercase hex digits).
func parseHash(s string) (model.Hash, error) {
	var h model.Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, fmt.Errorf("malformed taskset hash %q (want %d hex digits)", s, 2*len(h))
	}
	copy(h[:], b)
	return h, nil
}

// parseDeltaMethods resolves the method list of a delta request: only the
// DPCP-p variants have an incremental form, and an empty list means both.
func parseDeltaMethods(names []string) ([]analysis.Method, error) {
	if len(names) == 0 {
		return []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN}, nil
	}
	ms, err := parseMethods(names)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		if m != analysis.DPCPpEP && m != analysis.DPCPpEN {
			return nil, fmt.Errorf("method %q has no incremental form (delta supports %s, %s)",
				m, analysis.DPCPpEP, analysis.DPCPpEN)
		}
	}
	return ms, nil
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req DeltaRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	ms, err := parseDeltaMethods(req.Methods)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.PathCap < 0 {
		writeError(w, http.StatusBadRequest, "negative path_cap %d", req.PathCap)
		return
	}
	pl, err := parsePlacement(req.Placement)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := analysis.Options{PathCap: req.PathCap, Placement: pl}

	var baseHash model.Hash
	switch {
	case req.BaseTaskset != nil:
		if !finalizeTaskset(w, req.BaseTaskset, "") {
			return
		}
		baseHash = req.BaseTaskset.Hash()
		if req.Base != "" {
			given, err := parseHash(req.Base)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if given != baseHash {
				writeError(w, http.StatusBadRequest,
					"base %s does not match base_taskset's canonical hash %s", req.Base, baseHash)
				return
			}
		}
	case req.Base != "":
		if baseHash, err = parseHash(req.Base); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "missing base: supply base (a canonical hash) or base_taskset")
		return
	}

	if !s.admit(w, len(ms)) {
		return
	}
	defer s.engine.release(len(ms))
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	type deltaOut struct {
		hash  model.Hash
		mr    *MethodResult
		stats *analysis.DeltaStats
		err   error
	}
	outs := make([]deltaOut, len(ms))
	experiments.ParallelFor(len(ms), len(ms), func(_, i int) {
		o := &outs[i]
		o.hash, o.mr, o.stats, o.err = s.engine.analyzeDelta(
			ctx, baseHash, req.BaseTaskset, req.Patch, ms[i], opts)
	})
	for _, o := range outs {
		if o.err == nil {
			continue
		}
		var perr *model.PatchError
		switch {
		case errors.As(o.err, &perr):
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("invalid patch: %v", perr),
				Code:  http.StatusBadRequest,
				Patch: perr,
			})
		case errors.Is(o.err, errUnknownBase):
			writeError(w, http.StatusBadRequest,
				"unknown base %s: no retained state; re-send with base_taskset to establish one", baseHash)
		default:
			s.finishAnalysis(w, o.err)
		}
		return
	}

	resp := &DeltaResponse{
		BaseHash: baseHash.String(),
		Hash:     outs[0].hash.String(),
		Results:  make(map[string]*MethodResult, len(ms)),
		Delta:    make(map[string]*DeltaInfo, len(ms)),
	}
	for i, m := range ms {
		resp.Results[string(m)] = outs[i].mr
		info := &DeltaInfo{}
		if st := outs[i].stats; st != nil {
			info.Incremental = true
			info.Rounds = st.Rounds
			info.MatchedRounds = st.MatchedRounds
			info.Reused = st.Reused
			info.Recomputed = st.Recomputed
			info.WarmStarted = st.WarmStarted
			info.ViewsSeeded = st.ViewsSeeded
			info.ViewsReplayed = st.ViewsReplayed
		}
		resp.Delta[string(m)] = info
	}
	writeJSON(w, http.StatusOK, resp)
}
