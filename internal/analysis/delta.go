package analysis

import (
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
)

// Delta is the base of a what-if chain: a finalized taskset that one
// DPCP-p-EP or DPCP-p-EN analysis found schedulable, with that analysis's
// method and options. Apply and ApplyTo patch the base and analyze the
// patched taskset from scratch with TestWith, so every answer is, by
// construction, the answer a direct analysis of the edited taskset gives.
// A schedulable patched result becomes the next base, so a chain of edits
// can quote the previous answer.
//
// A Delta is immutable and safe for concurrent Apply calls. The server
// does not use it (it retains plain base tasksets); it stays for the root
// facade (dpcpp.Delta) and perfbench.
type Delta struct {
	ts   *model.Taskset
	m    Method
	opts Options
}

// DeltaStats is empty: ApplyTo runs a plain TestWith, whose Result says
// everything there is to say. It stays because perfbench compiles against
// ApplyTo's three results.
type DeltaStats struct{}

// NewDelta runs TestWith and returns ts as the base of a what-if chain.
// The state is nil for methods other than DPCPpEP / DPCPpEN and for
// unschedulable results, so only schedulable EP/EN bases are chained.
func NewDelta(sc *Scratch, m Method, ts *model.Taskset, opts Options) (partition.Result, *Delta) {
	res := TestWith(sc, m, ts, opts)
	if (m != DPCPpEP && m != DPCPpEN) || !res.Schedulable {
		return res, nil
	}
	return res, &Delta{ts: ts, m: m, opts: opts}
}

// Base returns the finalized base taskset.
func (d *Delta) Base() *model.Taskset { return d.ts }

// Apply patches the base and analyzes the result; it is ApplyPatch +
// ApplyTo in one call. The returned hash is the patched taskset's
// canonical hash (the patch-aware cache key).
func (d *Delta) Apply(sc *Scratch, p model.Patch) (model.Hash, partition.Result, *Delta, error) {
	patched, pd, err := model.ApplyPatch(d.ts, p)
	if err != nil {
		return model.Hash{}, partition.Result{}, nil, err
	}
	res, _, next := d.ApplyTo(sc, patched, pd)
	return patched.Hash(), res, next, nil
}

// ApplyTo analyzes an already-patched taskset, which must come from
// model.ApplyPatch on this state's base, with the base's method and
// options. The returned state (nil unless the patched set is schedulable)
// serves the patched taskset as the next base.
//
// The PatchDelta argument, always empty, and the DeltaStats result are
// unused; they stay because perfbench compiles against this signature.
func (d *Delta) ApplyTo(sc *Scratch, patched *model.Taskset, _ *model.PatchDelta) (partition.Result, DeltaStats, *Delta) {
	res := TestWith(sc, d.m, patched, d.opts)
	if !res.Schedulable {
		return res, DeltaStats{}, nil
	}
	return res, DeltaStats{}, &Delta{ts: patched, m: d.m, opts: d.opts}
}
