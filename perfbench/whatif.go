package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/server"
	"dpcpp/internal/store"
	"dpcpp/internal/taskgen"
)

// serve-whatif asks what-if questions about a fixed set of schedulable
// Fig. 2(a) bases whose incremental state the server retains from set-up.
// Each query names its base by hash and carries one patch operation; a
// tenth re-ask an earlier query (a result-cache hit). Fresh queries raise
// a vertex WCET, shorten a critical section, lengthen a period or add an
// edge by request-unique amounts, so nearly every one is a taskset the
// server has not analyzed.
const (
	whatifBases = 64
	// whatifPoints is how many of the lowest Fig. 2(a) utilization points
	// bases are drawn from; above them few sets are schedulable.
	whatifPoints = 8
	reaskShare   = 0.1
	// Fresh-query operation shares; add_edge takes the rest.
	wcetShare, cslenShare, periodShare = 0.7, 0.1, 0.1
	// reaskWindow bounds how far back a re-ask reaches; reaskGap keeps the
	// re-asked query old enough to have been answered.
	reaskWindow, reaskGap = 4096, 64
)

// whatifSet holds the bases and their canonical hashes.
type whatifSet struct {
	bases  []*model.Taskset
	hashes []string
}

func newWhatifSet(seed int64) (*whatifSet, error) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		return nil, err
	}
	g := taskgen.NewGenerator(scen)
	points := taskgen.UtilizationPoints(scen.M)
	sc := analysis.NewScratch()
	ws := &whatifSet{}
	for k := 0; len(ws.bases) < whatifBases; k++ {
		if k > 100*whatifBases {
			return nil, fmt.Errorf("too few schedulable bases among %d samples", k)
		}
		p := k % whatifPoints
		ts, err := experiments.GenerateSample(g, experiments.SampleSeed(seed, scen.Name(), p, k/whatifPoints), points[p])
		if err != nil {
			return nil, err
		}
		// Both methods must keep incremental state for the base.
		if !analysis.TestWith(sc, analysis.DPCPpEP, ts, analysis.Options{}).Schedulable ||
			!analysis.TestWith(sc, analysis.DPCPpEN, ts, analysis.Options{}).Schedulable {
			continue
		}
		ws.bases = append(ws.bases, ts)
		ws.hashes = append(ws.hashes, ts.Hash().String())
	}
	return ws, nil
}

// whatifStream is the serve-whatif request stream.
type whatifStream struct {
	seed int64
	ws   *whatifSet

	mu      sync.Mutex
	replies map[int][]byte // 200 replies by stream index
}

// query is one what-if: a base and a one-op patch. Index -1-b is the
// set-up query of base b.
type query struct {
	base  int
	patch model.Patch
}

// resolve maps request i to the query it asks: itself when fresh, the
// re-asked query otherwise (always a fresh or set-up query).
func (s *whatifStream) resolve(i int) int {
	for i >= 0 {
		m := mix{s.seed, i}
		if m.float(0) >= reaskShare {
			return i
		}
		if i < reaskGap {
			return -1 - m.intn(1, len(s.ws.bases))
		}
		i -= reaskGap + m.intn(1, min(i-reaskGap, reaskWindow)+1)
	}
	return i
}

// query builds fresh query i, or set-up query -1-b.
func (s *whatifStream) query(i int) query {
	if i < 0 {
		b := -1 - i
		t := s.ws.bases[b].Tasks[0]
		return query{b, onePatch(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: 0,
			Value: t.Vertices[0].WCET + 1})}
	}
	m := mix{s.seed, i}
	b := m.intn(2, len(s.ws.bases))
	ts := s.ws.bases[b]
	t := ts.Tasks[m.intn(3, len(ts.Tasks))]
	x := rt.VertexID(m.intn(4, len(t.Vertices)))
	wcet := onePatch(model.PatchOp{Op: model.OpSetWCET, Task: t.ID, Vertex: x,
		Value: t.Vertices[x].WCET + rt.Time(1+i)})
	switch u := m.float(5); {
	case u < wcetShare:
		return query{b, wcet}
	case u < wcetShare+cslenShare:
		res := t.Resources()
		if len(res) == 0 {
			return query{b, wcet}
		}
		q := res[m.intn(6, len(res))]
		old := t.CS(q)
		// Shortening a critical section never breaks the WCET bound.
		return query{b, onePatch(model.PatchOp{Op: model.OpSetCSLen, Task: t.ID, Resource: q,
			Value: old - 1 - rt.Time(i)%(old-1)})}
	case u < wcetShare+cslenShare+periodShare:
		return query{b, onePatch(model.PatchOp{Op: model.OpSetPeriod, Task: t.ID,
			Value: t.Period + rt.Time(1+i)})}
	default:
		// An edge forward in topological order never closes a cycle.
		topo := t.Topo()
		for k := 0; k < 8 && len(topo) > 1; k++ {
			a := m.intn(7+2*k, len(topo)-1)
			c := a + 1 + m.intn(8+2*k, len(topo)-a-1)
			if !hasEdge(t, topo[a], topo[c]) {
				return query{b, onePatch(model.PatchOp{Op: model.OpAddEdge, Task: t.ID,
					From: topo[a], To: topo[c]})}
			}
		}
		return query{b, wcet}
	}
}

func onePatch(op model.PatchOp) model.Patch { return model.Patch{Ops: []model.PatchOp{op}} }

func hasEdge(t *model.Task, from, to rt.VertexID) bool {
	for _, e := range t.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

func (s *whatifStream) body(q query, withBase bool) []byte {
	req := server.DeltaRequest{Base: s.ws.hashes[q.base], Patch: q.patch}
	if withBase {
		req.BaseTaskset = s.ws.bases[q.base]
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // finalized tasksets and patches always marshal
	}
	return b
}

func (s *whatifStream) request(i int) call {
	return call{path: "/v1/analyze/delta", body: s.body(s.query(s.resolve(i)), false)}
}

// retry re-sends a query with its base taskset when the server answers
// that it holds no state for the base.
func (s *whatifStream) retry(i int, r reply) (call, bool) {
	if r.err != nil || r.status != http.StatusBadRequest || !bytes.Contains(r.body, []byte("unknown base")) {
		return call{}, false
	}
	return call{path: "/v1/analyze/delta", body: s.body(s.query(s.resolve(i)), true)}, true
}

func (s *whatifStream) observe(i int, r reply) {
	if r.err != nil || r.status != http.StatusOK {
		return
	}
	s.mu.Lock()
	s.replies[i] = r.body
	s.mu.Unlock()
}

// setupWhatif draws the bases, starts a server and establishes each base's
// incremental state with one query carrying base_taskset.
func setupWhatif(cfg runConfig, k int) (*serveInstance, error) {
	ws, err := newWhatifSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := storeDir(cfg, k)
	if err != nil {
		return nil, err
	}
	h, err := startHost(dir)
	if err != nil {
		return nil, err
	}
	c := newClient(h.url)
	st := &whatifStream{seed: cfg.seed, ws: ws, replies: make(map[int][]byte)}
	si := &serveInstance{h: h, c: c, st: st, check: st.check}
	for b := range ws.bases {
		r := c.send(context.Background(), -1, call{path: "/v1/analyze/delta", body: st.body(st.query(-1-b), true)})
		if r.err != nil || r.status != http.StatusOK {
			si.close()
			return nil, fmt.Errorf("establishing base %d: status %d: %v", b, r.status, r.err)
		}
	}
	return si, nil
}

func runWhatif(cfg runConfig) (*outcome, error) {
	w, _ := findWorkload("serve-whatif")
	return runServe(cfg, w, setupWhatif)
}

// whatifMethods are the methods a delta query runs by default.
var whatifMethods = []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN}

// check compares every reply with a cold analysis of the benchmark's own
// model.ApplyPatch result: the patched hash and each method's verdict,
// WCRTs, rounds and reason.
func (s *whatifStream) check(out *outcome) {
	s.mu.Lock()
	byQuery := make(map[int][]int) // resolved query -> stream indices
	for i := range s.replies {
		q := s.resolve(i)
		byQuery[q] = append(byQuery[q], i)
	}
	s.mu.Unlock()
	qs := make([]int, 0, len(byQuery))
	for q := range byQuery {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	bad := make([]string, len(qs))
	var scs [workers]*analysis.Scratch
	for w := range scs {
		scs[w] = analysis.NewScratch()
	}
	experiments.ParallelFor(workers, len(qs), func(w, n int) {
		q := s.query(qs[n])
		patched, _, err := model.ApplyPatch(s.ws.bases[q.base], q.patch)
		if err != nil {
			bad[n] = fmt.Sprintf("query %d: %v", qs[n], err)
			return
		}
		want := make(map[string]partition.Result, len(whatifMethods))
		for _, m := range whatifMethods {
			want[string(m)] = analysis.TestWith(scs[w], m, patched, analysis.Options{})
		}
		for _, i := range byQuery[qs[n]] {
			var resp server.DeltaResponse
			if err := json.Unmarshal(s.replies[i], &resp); err != nil {
				bad[n] = fmt.Sprintf("request %d: %v", i, err)
				return
			}
			if resp.Hash != patched.Hash().String() || resp.BaseHash != s.ws.hashes[q.base] {
				bad[n] = fmt.Sprintf("request %d: hash %s, want %s", i, resp.Hash, patched.Hash())
				return
			}
			for name, res := range want {
				if !sameResult(resp.Results[name], res) {
					bad[n] = fmt.Sprintf("request %d: %s differs from a cold analysis", i, name)
					return
				}
			}
		}
	})
	for _, b := range bad {
		out.check(b == "", "serve-whatif: %s", b)
	}
}

// sameResult reports whether a served result equals a direct analysis.
func sameResult(got *server.MethodResult, want partition.Result) bool {
	if got == nil || got.Schedulable != want.Schedulable || got.Rounds != want.Rounds ||
		got.Reason != want.Reason || len(got.WCRT) != len(want.WCRT) {
		return false
	}
	for id, r := range want.WCRT {
		if got.WCRT[id] != r {
			return false
		}
	}
	return true
}

// tracedWhatif measures the delta-path layers: the traced nominal schedule
// gives the handler time of fresh queries and the response's reuse
// counts; shadow calls time patching, hashing, store writes, and the
// benchmark's own retained states against cold re-analysis.
func tracedWhatif(cfg runConfig, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	si, err := setupWhatif(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer si.close()
	st := si.st.(*whatifStream)
	w, _ := findWorkload("serve-whatif")
	run, err := si.tracedSteps(w.NominalRPS, budget*3/10, 0)
	if err != nil {
		return nil, err
	}
	out.attempt(run.u.sent+run.t.step.sent, run.u.fail+run.t.step.fail)
	mark := tr.mark()
	classOf := func(i int) string {
		if st.resolve(i) == i {
			return "delta"
		}
		return "reask"
	}
	run.t.spans(tr, classOf)
	ledger := handlerLedger(tr.since(mark))
	out.set("server.delta_us", ledger["server.handler.delta"].handlerUS)

	var reused, recomputed, rounds, matched int
	var fresh []int
	for i, rep := range run.t.replies {
		if rep.status != http.StatusOK || st.resolve(i) != i {
			continue
		}
		fresh = append(fresh, i)
		var resp server.DeltaResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return nil, err
		}
		for _, info := range resp.Delta {
			if info.Incremental {
				reused += info.Reused
				recomputed += info.Recomputed
				rounds += info.Rounds
				matched += info.MatchedRounds
			}
		}
	}
	sort.Ints(fresh)
	out.set("analysis.delta_reused_ratio", float64(reused)/float64(max(reused+recomputed, 1)))
	out.set("analysis.delta_matched_round_ratio", float64(matched)/float64(max(rounds, 1)))
	d := metricsDelta(run.before, run.after)
	out.set("server.delta_hit_ratio", float64(d.DeltaHits)/float64(max(d.DeltaHits+d.DeltaFallbacks, 1)))
	out.set("server.delta_retry_ratio", float64(run.t.step.retried)/float64(max(run.t.step.sent, 1)))
	out.set("server.delta_states", float64(run.after.DeltaStates))
	out.set("loadgen.lag_p99_ms", quantile(run.u.lag, 0.99))
	out.set("experiments.busy_ratio", run.t.busyRatio())
	out.set("obs.trace_overhead_pct", 100*(run.t.step.meanServiceMS()/run.u.meanServiceMS()-1))

	sh, err := shadowWhatif(st, fresh, cfg.work, time.Now().Add(budget*3/10))
	if err != nil {
		return nil, err
	}
	for name, v := range sh {
		out.set(name, v)
	}
	st.check(out)
	out.finishSuccess()
	return out, nil
}

// shadowWhatif times, on the given fresh queries, model.ApplyPatch,
// Taskset.Hash and a store write of one result, then Delta.ApplyTo on the
// benchmark's own retained states against a cold TestWith of the same
// patched taskset. Means are in µs; delta_speedup is cold over apply.
func shadowWhatif(st *whatifStream, fresh []int, work string, until time.Time) (map[string]float64, error) {
	if len(fresh) == 0 {
		return nil, fmt.Errorf("no fresh what-if replies to shadow")
	}
	dir, err := storeDir(runConfig{work: work}, 98)
	if err != nil {
		return nil, err
	}
	sto, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	sc := analysis.NewScratch()
	states := make(map[[2]int]*analysis.Delta) // (base, method index)
	sums := make(map[string]time.Duration)
	n := 0
	for ; n < len(fresh) || time.Now().Before(until); n++ {
		i := fresh[n%len(fresh)]
		q := st.query(i)
		mi := n % len(whatifMethods)
		m := whatifMethods[mi]
		d := states[[2]int{q.base, mi}]
		if d == nil {
			_, d = analysis.NewDelta(sc, m, st.ws.bases[q.base], analysis.Options{})
			states[[2]int{q.base, mi}] = d
		}
		t0 := time.Now()
		patched, pd, err := model.ApplyPatch(st.ws.bases[q.base], q.patch)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		h := patched.Hash()
		t2 := time.Now()
		res, _, _ := d.ApplyTo(sc, patched, pd)
		t3 := time.Now()
		cold := analysis.TestWith(sc, m, patched, analysis.Options{})
		t4 := time.Now()
		if !sameResult(&server.MethodResult{Schedulable: res.Schedulable, WCRT: res.WCRT,
			Rounds: res.Rounds, Reason: res.Reason}, cold) {
			return nil, fmt.Errorf("query %d: Delta.ApplyTo differs from a cold analysis", i)
		}
		data, err := json.Marshal(server.MethodResult{Schedulable: res.Schedulable, WCRT: res.WCRT,
			Rounds: res.Rounds, Reason: res.Reason})
		if err != nil {
			return nil, err
		}
		t5 := time.Now()
		if err := sto.Put(fmt.Sprintf("%s|%s|%d", h, m, n), data); err != nil {
			return nil, err
		}
		t6 := time.Now()
		sums["model.apply_patch_us"] += t1.Sub(t0)
		sums["model.hash_us"] += t2.Sub(t1)
		sums["analysis.delta_apply_us"] += t3.Sub(t2)
		sums["analysis.delta_cold_us"] += t4.Sub(t3)
		sums["store.put_us"] += t6.Sub(t5)
	}
	out := make(map[string]float64, len(sums)+1)
	for k, v := range sums {
		out[k] = durUS(v) / float64(n)
	}
	out["analysis.delta_speedup"] = out["analysis.delta_cold_us"] / out["analysis.delta_apply_us"]
	return out, nil
}
