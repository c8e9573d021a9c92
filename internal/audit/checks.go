package audit

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/sim"
)

// methodVerdict is the outcome of one (taskset, method) audit job.
type methodVerdict struct {
	res        partition.Result
	violations []Violation
}

// protocolFor maps an analysis method to the runtime protocol its bound
// speaks about. ok=false means no sound simulation exists for the method on
// this taskset: FED-FP deliberately ignores shared resources (the paper's
// hypothetical upper envelope), so its bound is only claimed — and only
// cross-checked — on tasksets that issue no requests at all, where every
// protocol degenerates to plain federated scheduling.
func protocolFor(m analysis.Method, ts *model.Taskset) (sim.Protocol, bool) {
	switch m {
	case analysis.DPCPpEP, analysis.DPCPpEN:
		return sim.ProtocolDPCPp, true
	case analysis.SPIN:
		return sim.ProtocolSpin, true
	case analysis.LPP:
		return sim.ProtocolLPP, true
	default: // FED-FP
		for _, t := range ts.Tasks {
			for _, v := range t.Vertices {
				if v.TotalRequests() > 0 {
					return sim.ProtocolDPCPp, false
				}
			}
		}
		return sim.ProtocolDPCPp, true
	}
}

// checkMethod runs one analysis and, when it certifies the taskset, a batch
// of differential simulator runs against its partition and WCRT bounds.
func checkMethod(cfg Config, g *genTaskset, mi int, simRuns *atomic.Int64) methodVerdict {
	m := cfg.Methods[mi]
	v := methodVerdict{res: analysis.Test(m, g.ts, analysis.Options{PathCap: cfg.PathCap})}
	if !v.res.Schedulable {
		return v
	}
	proto, ok := protocolFor(m, g.ts)
	if !ok {
		return v
	}
	// Simulation seeds derive from the generation seed alone — which the
	// fixture filename preserves — so ReplayFixture reruns the exact
	// offset vectors that produced a violation, not fresh ones.
	rng := rand.New(rand.NewSource(seedFor(g.seed, 0, "sim|"+string(m))))
	v.violations = simBatch(cfg, g, m, proto, v.res, rng, simRuns)
	return v
}

// simBatch simulates one certified verdict across CS placements and release
// offsets over a multi-(near-)hyperperiod horizon and checks soundness:
// zero deadline misses, responses within the analytical bounds, no protocol
// invariant violations, and Lemma 1 for DPCP-p.
func simBatch(cfg Config, g *genTaskset, m analysis.Method, proto sim.Protocol,
	res partition.Result, rng *rand.Rand, simRuns *atomic.Int64) []Violation {

	var maxPeriod rt.Time
	for _, t := range g.ts.Tasks {
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
	}
	horizon := rt.SatMul(int64(cfg.HyperPeriods), maxPeriod)

	var out []Violation
	report := func(kind, detail string) {
		out = append(out, Violation{
			Index: g.index, Seed: g.seed, Shape: g.label,
			Method: string(m), Kind: kind, Detail: detail,
		})
	}

	for _, placement := range []sim.CSPlacement{sim.SpreadCS, sim.FrontCS, sim.BackCS} {
		for run := 0; run < cfg.SimRuns; run++ {
			var offsets map[rt.TaskID]rt.Time
			if run > 0 { // run 0 is the synchronous release
				offsets = make(map[rt.TaskID]rt.Time, len(g.ts.Tasks))
				for _, t := range g.ts.Tasks {
					offsets[t.ID] = rt.Time(rng.Int63n(int64(t.Period)))
				}
			}
			s, err := sim.New(g.ts, res.Partition, sim.Config{
				Protocol:  proto,
				Horizon:   horizon,
				Offsets:   offsets,
				Placement: placement,
			})
			if err != nil {
				report("sim-error", fmt.Sprintf("sim.New: %v", err))
				continue
			}
			metrics, err := s.Run()
			simRuns.Add(1)
			tag := fmt.Sprintf("placement=%d run=%d", placement, run)
			if err != nil {
				report("sim-error", fmt.Sprintf("%s: %v", tag, err))
				continue
			}
			if vs := s.Violations(); len(vs) > 0 {
				report("sim-invariant", fmt.Sprintf("%s: %d violations, first: %s", tag, len(vs), vs[0]))
			}
			if metrics.DeadlineMisses > 0 {
				report("deadline-miss", fmt.Sprintf("%s: %d deadline misses on a certified taskset",
					tag, metrics.DeadlineMisses))
			}
			for _, t := range g.ts.Tasks {
				if simR, bound := metrics.MaxResponse[t.ID], res.WCRT[t.ID]; simR > bound {
					report("bound-exceeded", fmt.Sprintf("%s: task %d observed %s > bound %s",
						tag, t.ID, rt.FormatTime(simR), rt.FormatTime(bound)))
				}
			}
			if proto == sim.ProtocolDPCPp && metrics.MaxLowPrioBlockers > 1 {
				report("lemma1", fmt.Sprintf("%s: %d lower-priority blockers on one request",
					tag, metrics.MaxLowPrioBlockers))
			}
		}
	}
	return out
}

// crossChecks runs the cross-method invariants once all method jobs of a
// taskset are in: EP never exceeds EN on one identical partition, and every
// bound is monotone under WCET inflation on one identical partition.
func crossChecks(cfg Config, g *genTaskset, results []methodVerdict) []Violation {
	opts := analysis.Options{PathCap: cfg.PathCap}
	var out []Violation
	report := func(method analysis.Method, kind, detail string) {
		out = append(out, Violation{
			Index: g.index, Seed: g.seed, Shape: g.label,
			Method: string(method), Kind: kind, Detail: detail,
		})
	}

	// EP <= EN per task on one identical, fully-placed partition. Use the
	// partition of whichever DPCP-p variant certified the set (the two
	// pipelines may augment differently; the invariant is per-partition).
	var dpcpPart *partition.Partition
	for mi, m := range cfg.Methods {
		if (m == analysis.DPCPpEN || m == analysis.DPCPpEP) && results[mi].res.Schedulable {
			dpcpPart = results[mi].res.Partition
			if m == analysis.DPCPpEN {
				break // prefer EN's partition when both certified
			}
		}
	}
	if dpcpPart != nil {
		ep := analysis.NewAnalyzer(nil, analysis.DPCPpEP, g.ts, opts).WCRTs(dpcpPart, false)
		en := analysis.NewAnalyzer(nil, analysis.DPCPpEN, g.ts, opts).WCRTs(dpcpPart, false)
		for _, t := range g.ts.Tasks {
			if ep[t.ID] > en[t.ID] {
				report(analysis.DPCPpEP, "ep-exceeds-en",
					fmt.Sprintf("task %d: EP %s > EN %s on the same partition",
						t.ID, rt.FormatTime(ep[t.ID]), rt.FormatTime(en[t.ID])))
			}
		}
	}

	// WCET-scaling monotonicity: inflate every vertex WCET by 5/4 (ceiled),
	// holding periods, deadlines, priorities, structure and requests fixed,
	// and re-evaluate each certifying method's analyzer on a clone of its
	// own final partition. Bounds must not shrink.
	scaled, err := inflateWCET(g.ts)
	if err != nil {
		report("", "non-monotone", fmt.Sprintf("building scaled taskset: %v", err))
		return out
	}
	for mi, m := range cfg.Methods {
		if !results[mi].res.Schedulable {
			continue
		}
		p := results[mi].res.Partition
		p2, err := p.CloneFor(scaled)
		if err != nil {
			report(m, "non-monotone", fmt.Sprintf("rebinding partition: %v", err))
			continue
		}
		base := analysis.NewAnalyzer(nil, m, g.ts, opts).WCRTs(p, false)
		infl := analysis.NewAnalyzer(nil, m, scaled, opts).WCRTs(p2, false)
		for _, t := range g.ts.Tasks {
			if infl[t.ID] < base[t.ID] {
				report(m, "non-monotone",
					fmt.Sprintf("task %d: bound shrank from %s to %s under WCET inflation",
						t.ID, rt.FormatTime(base[t.ID]), rt.FormatTime(infl[t.ID])))
			}
		}
	}
	return out
}

// inflateWCET returns a structure-preserving copy of the taskset with every
// vertex WCET inflated by 5/4 (ceiled), requests and timing untouched.
func inflateWCET(ts *model.Taskset) (*model.Taskset, error) {
	return rebuild(ts, func(t *model.Task, v *model.Vertex) (rt.Time, bool) {
		return v.WCET + (v.WCET+3)/4, true
	})
}

// patchChainSteps is the length of each random patch chain the patch leg
// drives per certified DPCP-p verdict.
const patchChainSteps = 3

// patchChecks is the what-if leg: starting from each certified DPCP-p
// verdict, it drives a short deterministic random patch chain through
// model.ApplyPatch and requires every step's patched taskset to analyze
// bit-identically to the same taskset rebuilt from its JSON, with the same
// canonical hash. ApplyPatch derives a WCET-only edit through a fast clone
// rather than a full Finalize, so this pins that the clone is
// indistinguishable from a fresh build. A divergence is a "patch-mismatch"
// violation; because CheckTaskset runs this leg too, shrinking minimizes
// such tasksets into fixtures exactly like soundness breaches. Returns the
// violations plus the number of chains driven.
func patchChecks(cfg Config, g *genTaskset, results []methodVerdict) ([]Violation, int) {
	var out []Violation
	chains := 0
	opts := analysis.Options{PathCap: cfg.PathCap}
	for mi, m := range cfg.Methods {
		if (m != analysis.DPCPpEP && m != analysis.DPCPpEN) || !results[mi].res.Schedulable {
			continue
		}
		report := func(detail string) {
			out = append(out, Violation{
				Index: g.index, Seed: g.seed, Shape: g.label,
				Method: string(m), Kind: "patch-mismatch", Detail: detail,
			})
		}
		sc, fullSc := analysis.NewScratch(), analysis.NewScratch()
		chains++
		base := g.ts
		rng := rand.New(rand.NewSource(seedFor(g.seed, 0, "delta|"+string(m))))
		for step := 0; step < patchChainSteps; step++ {
			p, ok := deltaPatch(rng, base)
			if !ok {
				break
			}
			patched, _, err := model.ApplyPatch(base, p)
			if err != nil {
				report(fmt.Sprintf("step %d: valid generated patch rejected: %v", step, err))
				break
			}
			built, err := roundTrip(patched)
			if err != nil {
				report(fmt.Sprintf("step %d: patched taskset does not rebuild: %v", step, err))
				break
			}
			if built.Hash() != patched.Hash() {
				report(fmt.Sprintf("step %d: patched hash %s != rebuilt %s", step, patched.Hash(), built.Hash()))
				break
			}
			res := analysis.TestWith(sc, m, patched, opts)
			full := analysis.TestWith(fullSc, m, built, opts)
			if detail := diffResults(res, full); detail != "" {
				report(fmt.Sprintf("step %d: patched vs rebuilt: %s", step, detail))
				break
			}
			if res.Schedulable {
				// Chain onward from the patched taskset; an unschedulable
				// step re-anchors the next patch on the previous base.
				base = patched
			}
		}
	}
	return out, chains
}

// roundTrip rebuilds a taskset from its JSON encoding, through the full
// decode-and-Finalize path.
func roundTrip(ts *model.Taskset) (*model.Taskset, error) {
	var buf bytes.Buffer
	if err := model.EncodeTaskset(&buf, ts); err != nil {
		return nil, err
	}
	return model.DecodeTaskset(&buf)
}

// diffResults compares two verdicts; "" means bit-identical, anything
// else describes the first divergence.
func diffResults(got, want partition.Result) string {
	if got.Schedulable != want.Schedulable {
		return fmt.Sprintf("schedulable %v != %v", got.Schedulable, want.Schedulable)
	}
	if len(got.WCRT) != len(want.WCRT) {
		return fmt.Sprintf("%d WCRT bounds != %d", len(got.WCRT), len(want.WCRT))
	}
	ids := make([]rt.TaskID, 0, len(want.WCRT))
	for id := range want.WCRT {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		if got.WCRT[id] != want.WCRT[id] {
			return fmt.Sprintf("task %d bound %s != %s", id,
				rt.FormatTime(got.WCRT[id]), rt.FormatTime(want.WCRT[id]))
		}
	}
	return ""
}

// deltaPatch draws one structurally valid random patch for ts, mixing
// WCET and request growth with shrinks and period edits. ok=false when no
// valid op was found within the try budget.
func deltaPatch(r *rand.Rand, ts *model.Taskset) (model.Patch, bool) {
	one := func(op model.PatchOp) (model.Patch, bool) {
		return model.Patch{Ops: []model.PatchOp{op}}, true
	}
	for tries := 0; tries < 32; tries++ {
		t := ts.Tasks[r.Intn(len(ts.Tasks))]
		x := rt.VertexID(r.Intn(len(t.Vertices)))
		v := t.Vertices[x]
		var csNeed rt.Time
		for q, n := range v.Requests {
			csNeed += rt.SatMul(int64(n), t.CS(q))
		}
		switch r.Intn(6) {
		case 0, 1: // WCET bump up: always valid.
			return one(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: x,
				Value: v.WCET + 1 + rt.Time(r.Int63n(int64(rt.Microsecond)))})
		case 2: // WCET shrink toward the critical-section floor.
			floor := csNeed
			if floor == 0 {
				floor = 1
			}
			if v.WCET <= floor {
				continue
			}
			return one(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: x,
				Value: floor + rt.Time(r.Int63n(int64(v.WCET-floor)))})
		case 3: // Request count up when the vertex has WCET slack for it.
			if ts.NumResources == 0 {
				continue
			}
			q := rt.ResourceID(r.Intn(ts.NumResources))
			if t.CS(q) == 0 || v.WCET-csNeed < t.CS(q) {
				continue
			}
			return one(model.PatchOp{Op: model.OpSetRequest, Task: t.ID, Vertex: x,
				Resource: q, Count: v.Requests[q] + 1})
		case 4: // Request count down (possibly a sharer flip to zero).
			for _, q := range t.Resources() {
				if n := v.Requests[q]; n > 0 {
					return one(model.PatchOp{Op: model.OpSetRequest, Task: t.ID,
						Vertex: x, Resource: q, Count: n - 1})
				}
			}
		case 5: // Period growth (deadline <= period stays satisfied).
			return one(model.PatchOp{Op: model.OpSetPeriod, Task: t.ID,
				Value: t.Period + 1 + rt.Time(r.Int63n(int64(t.Period)))})
		}
	}
	return model.Patch{}, false
}
