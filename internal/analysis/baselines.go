package analysis

import (
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// vertexCount returns, per resource, the number of distinct vertices of the
// task that issue at least one request to it. This bounds how many requests
// of one job can be pending concurrently.
func vertexCount(ts *model.Taskset, t *model.Task) []int64 {
	counts := make([]int64, ts.NumResources)
	for _, v := range t.Vertices {
		for q, n := range v.Requests {
			if n > 0 {
				counts[q]++
			}
		}
	}
	return counts
}

// Spin is the SPIN-SON baseline (Dinh et al.): federated scheduling with
// local execution of requests and FIFO non-preemptive spin locks.
//
// Per request to q, the spinning vertex waits for at most one in-flight
// critical section per processor that can concurrently contend: task tau_j
// contributes min(m_j, V_{j,q}) critical sections (spinning occupies a
// processor, so concurrency is capped by the cluster size), and the task's
// own other vertices contribute min(m_i - 1, V_{i,q} - 1). Spinning burns
// processor time, so off-path spin inflates the interference term. The
// worst-case path is unknown and bounded per-term exactly as in DPCP-p-EN,
// matching the paper's remark that [6] enumerates the path request counts.
type Spin struct {
	ts     *model.Taskset
	vcount map[rt.TaskID][]int64
	bounds map[rt.TaskID]*model.PathBounds
}

// NewSpin returns a SPIN-SON analyzer over the taskset.
func NewSpin(ts *model.Taskset) *Spin {
	s := &Spin{ts: ts,
		vcount: make(map[rt.TaskID][]int64, len(ts.Tasks)),
		bounds: make(map[rt.TaskID]*model.PathBounds, len(ts.Tasks))}
	for _, t := range ts.Tasks {
		s.vcount[t.ID] = vertexCount(ts, t)
		s.bounds[t.ID] = t.ComputePathBounds()
	}
	return s
}

// WCRTs implements partition.Analyzer. Every task is computed whatever
// untilMiss says: each bound is closed-form.
func (s *Spin) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time, len(s.ts.Tasks))
	for _, t := range s.ts.Tasks {
		out[t.ID] = s.taskWCRT(p, t)
	}
	return out
}

func (s *Spin) taskWCRT(p *partition.Partition, t *model.Task) rt.Time {
	mi := int64(p.NumProcs(t.ID))
	if mi == 0 {
		mi = 1
	}
	b := s.bounds[t.ID]

	var pathSpin, offSpin rt.Time
	for q := 0; q < s.ts.NumResources; q++ {
		rid := rt.ResourceID(q)
		if !t.UsesResource(rid) {
			continue
		}
		delta := s.perRequestWait(p, t, rid, mi)
		onReq := b.MaxReq[q]
		offReq := t.NumRequests(rid) - b.MinReq[q]
		pathSpin = rt.SatAdd(pathSpin, rt.SatMul(onReq, delta))
		offSpin = rt.SatAdd(offSpin, rt.SatMul(offReq, delta))
	}

	offWork := rt.SatAdd(t.WCET()-b.MinLength, offSpin)
	r := rt.SatAdd(b.MaxLength, pathSpin)
	return rt.SatAdd(r, rt.CeilDiv(offWork, mi))
}

// perRequestWait bounds the FIFO spin wait of a single request to q.
func (s *Spin) perRequestWait(p *partition.Partition, t *model.Task, q rt.ResourceID, mi int64) rt.Time {
	var delta rt.Time
	for _, other := range s.ts.Tasks {
		if other.ID == t.ID || !other.UsesResource(q) {
			continue
		}
		mj := int64(p.NumProcs(other.ID))
		if mj == 0 {
			mj = 1
		}
		conc := s.vcount[other.ID][q]
		if mj < conc {
			conc = mj
		}
		delta = rt.SatAdd(delta, rt.SatMul(conc, other.CS(q)))
	}
	intra := s.vcount[t.ID][q] - 1
	if intra > mi-1 {
		intra = mi - 1
	}
	if intra > 0 {
		delta = rt.SatAdd(delta, rt.SatMul(intra, t.CS(q)))
	}
	return delta
}

// LPPAnalyzer is the LPP baseline (Jiang et al.): federated scheduling with
// local execution, suspension-based FIFO semaphores, and holder priority
// boosting within the cluster.
//
// The analytical difference from spinning: a suspended vertex releases its
// processor, so up to V_{j,q} requests of task tau_j — one per vertex that
// uses q, NOT capped by m_j — can be queued ahead of a given request. In
// exchange, waiting does not burn processor time, so no off-path spin term
// inflates the interference bound.
type LPPAnalyzer struct {
	ts     *model.Taskset
	vcount map[rt.TaskID][]int64
	bounds map[rt.TaskID]*model.PathBounds
}

// NewLPP returns an LPP analyzer over the taskset.
func NewLPP(ts *model.Taskset) *LPPAnalyzer {
	a := &LPPAnalyzer{ts: ts,
		vcount: make(map[rt.TaskID][]int64, len(ts.Tasks)),
		bounds: make(map[rt.TaskID]*model.PathBounds, len(ts.Tasks))}
	for _, t := range ts.Tasks {
		a.vcount[t.ID] = vertexCount(ts, t)
		a.bounds[t.ID] = t.ComputePathBounds()
	}
	return a
}

// WCRTs implements partition.Analyzer. Every task is computed whatever
// untilMiss says: each bound is closed-form.
func (a *LPPAnalyzer) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time, len(a.ts.Tasks))
	for _, t := range a.ts.Tasks {
		out[t.ID] = a.taskWCRT(p, t)
	}
	return out
}

func (a *LPPAnalyzer) taskWCRT(p *partition.Partition, t *model.Task) rt.Time {
	mi := int64(p.NumProcs(t.ID))
	if mi == 0 {
		mi = 1
	}
	b := a.bounds[t.ID]

	var pathWait rt.Time
	for q := 0; q < a.ts.NumResources; q++ {
		rid := rt.ResourceID(q)
		if !t.UsesResource(rid) {
			continue
		}
		var delta rt.Time
		for _, other := range a.ts.Tasks {
			if other.ID == t.ID || !other.UsesResource(rid) {
				continue
			}
			delta = rt.SatAdd(delta, rt.SatMul(a.vcount[other.ID][q], other.CS(rid)))
		}
		if intra := a.vcount[t.ID][q] - 1; intra > 0 {
			delta = rt.SatAdd(delta, rt.SatMul(intra, t.CS(rid)))
		}
		pathWait = rt.SatAdd(pathWait, rt.SatMul(b.MaxReq[q], delta))
	}

	r := rt.SatAdd(b.MaxLength, pathWait)
	return rt.SatAdd(r, rt.CeilDiv(t.WCET()-b.MinLength, mi))
}

// FedFP is the FED-FP baseline: plain federated scheduling with shared
// resources ignored (Li et al.), the hypothetical upper envelope of Fig. 2.
type FedFP struct {
	ts *model.Taskset
}

// NewFedFP returns a FED-FP analyzer over the taskset.
func NewFedFP(ts *model.Taskset) *FedFP { return &FedFP{ts: ts} }

// WCRTs implements partition.Analyzer with the classic federated bound
// r = L* + (C - L*) / m_i, computed for every task whatever untilMiss says.
func (f *FedFP) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time, len(f.ts.Tasks))
	for _, t := range f.ts.Tasks {
		mi := int64(p.NumProcs(t.ID))
		if mi == 0 {
			mi = 1
		}
		out[t.ID] = rt.SatAdd(t.LongestPath(),
			rt.CeilDiv(t.WCET()-t.LongestPath(), mi))
	}
	return out
}
