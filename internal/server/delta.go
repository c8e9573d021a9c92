package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
)

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

// handleDelta serves POST /v1/analyze/delta. A verdict is a pure function
// of the finalized taskset, so the what-if work is only finding the base
// and applying the patch. The base is the taskset retained under the
// quoted hash, or else the request's base_taskset. The patch is applied
// once, and the patched taskset is answered by answer exactly as a
// /v1/analyze of it would be, sharing the result cache, flight and store.
// The base is retained once resolved and the patched taskset once
// answered, both under their bare hashes and whatever their verdicts, so a
// later query can quote either.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req DeltaRequest
	if s.decodeBody(w, r, &req) != nil {
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

	e := s.engine
	baseKey := baseHash.String()
	base, retained := e.deltaStates.get(baseKey)
	switch {
	case retained:
		e.deltaHits.Add(int64(len(ms)))
	case req.BaseTaskset != nil:
		base = req.BaseTaskset
		e.deltaFallbacks.Add(int64(len(ms)))
		e.deltaStates.add(baseKey, base)
	default:
		writeError(w, http.StatusBadRequest,
			"unknown base %s: no retained state; re-send with base_taskset to establish one", baseKey)
		return
	}

	patchStart := time.Now()
	patched, _, err := model.ApplyPatch(base, req.Patch)
	if err != nil {
		var perr *model.PatchError
		errors.As(err, &perr)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("invalid patch: %v", err),
			Code:  http.StatusBadRequest,
			Patch: perr,
		})
		return
	}
	ph := patched.Hash()
	obs.TraceFromContext(r.Context()).AddSpan("patch", patchStart)

	q := []query{{hash: ph, ts: patched,
		results: make(map[string]*MethodResult, len(ms)), analyzed: make([]bool, len(ms))}}
	if !s.answer(w, r, req.TimeoutMS, q, ms, opts, false) {
		return
	}
	resp := &DeltaResponse{
		BaseHash: baseKey,
		Hash:     ph.String(),
		Results:  q[0].results,
		Delta:    make(map[string]*DeltaInfo, len(ms)),
	}
	e.deltaStates.add(resp.Hash, patched)
	for i, m := range ms {
		info := &DeltaInfo{Incremental: q[0].analyzed[i]}
		if info.Incremental {
			info.Rounds = q[0].results[string(m)].Rounds
		}
		resp.Delta[string(m)] = info
	}
	writeJSON(w, http.StatusOK, resp)
}
