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
)

// errUnknownBase reports a delta request whose base hash names no retained
// base and whose body carried no base_taskset to rebuild it from. The
// handler maps it to a structured 400 telling the client to re-send with
// base_taskset (one-time cost; subsequent patches find the base).
var errUnknownBase = errors.New("no retained state for base taskset")

// analyzeDelta answers one method of a POST /v1/analyze/delta request. A
// verdict is a pure function of the finalized taskset, so the what-if work
// is only finding the base and applying the patch: the base (on a
// fallback) and the patched taskset both go through engine.analyze, and
// so share its result cache, flight and store with /v1/analyze.
//
// A fallback retains a schedulable base. When the base is retained and
// this call ran the patched analysis itself, the bool result
// (DeltaInfo.Incremental) is true, and a schedulable patched taskset is
// retained under its own hash so the next patch in a chain can quote it.
func (e *engine) analyzeDelta(ctx context.Context, baseHash model.Hash, baseTS *model.Taskset,
	p model.Patch, m analysis.Method, opts analysis.Options) (model.Hash, *MethodResult, bool, error) {

	skey := cacheKey(baseHash, m, opts, false)
	base, retained := e.deltaStates.get(skey)
	if retained {
		e.deltaHits.Add(1)
	} else {
		if baseTS == nil {
			return model.Hash{}, nil, false, errUnknownBase
		}
		e.deltaFallbacks.Add(1)
		bmr, _, err := e.analyze(ctx, baseHash, baseTS, m, opts, false)
		if err != nil {
			return model.Hash{}, nil, false, err
		}
		// An unschedulable base is not retained: its patched taskset is
		// still answered, but nothing can chain from it.
		if retained = bmr.Schedulable; retained {
			e.deltaStates.add(skey, baseTS)
		}
		base = baseTS
	}

	patchStart := time.Now()
	patched, _, err := model.ApplyPatch(base, p)
	if err != nil {
		return model.Hash{}, nil, false, err
	}
	ph := patched.Hash()
	obs.TraceFromContext(ctx).AddSpan("patch", patchStart)

	mr, analyzed, err := e.analyze(ctx, ph, patched, m, opts, false)
	if err != nil {
		return model.Hash{}, nil, false, err
	}
	incremental := retained && analyzed
	if incremental && mr.Schedulable {
		e.deltaStates.add(cacheKey(ph, m, opts, false), patched)
	}
	return ph, mr, incremental, nil
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

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req DeltaRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	methods := req.Methods
	if len(methods) == 0 {
		methods = []string{string(analysis.DPCPpEP), string(analysis.DPCPpEN)}
	}
	ms, opts, ok := s.validateOptions(w, methods, req.PathCap, req.Placement)
	if !ok {
		return
	}
	for _, m := range ms {
		if m != analysis.DPCPpEP && m != analysis.DPCPpEN {
			writeError(w, http.StatusBadRequest, "method %q has no incremental form (delta supports %s, %s)",
				m, analysis.DPCPpEP, analysis.DPCPpEN)
			return
		}
	}

	var baseHash model.Hash
	var err error
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
		hash     model.Hash
		mr       *MethodResult
		analyzed bool
		err      error
	}
	outs := make([]deltaOut, len(ms))
	experiments.ParallelFor(len(ms), len(ms), func(_, i int) {
		o := &outs[i]
		o.hash, o.mr, o.analyzed, o.err = s.engine.analyzeDelta(
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
		if outs[i].analyzed {
			info.Incremental = true
			info.Rounds = outs[i].mr.Rounds
		}
		resp.Delta[string(m)] = info
	}
	writeJSON(w, http.StatusOK, resp)
}
