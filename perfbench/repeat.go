package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/rt"
	"dpcpp/internal/server"
	"dpcpp/internal/store"
	"dpcpp/internal/taskgen"
)

// serve-repeat cycles through a fixed set of Fig. 2(a) tasksets small
// enough for the server's 4096-entry caches (repeatPerPoint per
// utilization point, five result entries each). Every request is one of:
//
//   - exact: the set member's canonical body, byte for byte, so the
//     exact-body response cache answers it;
//   - semantic: the same taskset with its task order permuted and one task
//     renamed after the request (names are outside the canonical hash), so
//     the body is new but the result cache answers it after decode,
//     Finalize, Hash and encode;
//   - fresh: the set member with one vertex WCET raised by a request-unique
//     amount, a taskset the server has never seen: five analyses and five
//     store writes.
const (
	repeatPerPoint = 8
	exactShare     = 0.6
	semanticShare  = 0.3 // fresh is the remaining 0.1
)

type repeatKind uint8

const (
	kindExact repeatKind = iota
	kindSemantic
	kindFresh
)

var kindClass = [...]string{kindExact: "fast_hit", kindSemantic: "semantic_hit", kindFresh: "miss"}

// repeatSet is the fixed taskset set with each task's JSON cached, so a
// request body is assembled by concatenation.
type repeatSet struct {
	ts    []*model.Taskset
	frags [][][]byte // [taskset][task] JSON of each task
	tails [][]byte   // `],"num_resources":..,"num_procs":..}}`
}

func newRepeatSet(seed int64) (*repeatSet, error) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		return nil, err
	}
	g := taskgen.NewGenerator(scen)
	rs := &repeatSet{}
	for p, u := range taskgen.UtilizationPoints(scen.M) {
		for k := 0; k < repeatPerPoint; k++ {
			ts, err := experiments.GenerateSample(g, experiments.SampleSeed(seed, scen.Name(), p, k), u)
			if err != nil {
				return nil, err
			}
			var frags [][]byte
			for _, t := range ts.Tasks {
				b, err := json.Marshal(t)
				if err != nil {
					return nil, err
				}
				frags = append(frags, b)
			}
			rs.ts = append(rs.ts, ts)
			rs.frags = append(rs.frags, frags)
			rs.tails = append(rs.tails, fmt.Appendf(nil, `],"num_resources":%d,"num_procs":%d}}`, ts.NumResources, ts.NumProcs))
		}
	}
	return rs, nil
}

// body assembles an analyze request for set member j from task fragments
// in the given order.
func (rs *repeatSet) body(j int, frags [][]byte) []byte {
	b := make([]byte, 0, 64*1024)
	b = append(b, `{"taskset":{"tasks":[`...)
	for k, f := range frags {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	return append(b, rs.tails[j]...)
}

// repeatStream is the serve-repeat request stream.
type repeatStream struct {
	seed int64
	rs   *repeatSet

	mu sync.Mutex
	// first holds the first successful reply per distinct taskset (key: set index,
	// or len(set)+i for the fresh request i); every later reply for the
	// same taskset must be byte-identical to it.
	first   map[int][]byte
	differs map[int]bool
}

func newRepeatStream(seed int64, rs *repeatSet) *repeatStream {
	return &repeatStream{seed: seed, rs: rs, first: make(map[int][]byte), differs: make(map[int]bool)}
}

// pick returns request i's kind and set member.
func (s *repeatStream) pick(i int) (repeatKind, int) {
	m := mix{s.seed, i}
	j := m.intn(1, len(s.rs.ts))
	switch u := m.float(0); {
	case u < exactShare:
		return kindExact, j
	case u < exactShare+semanticShare:
		return kindSemantic, j
	default:
		return kindFresh, j
	}
}

// key is the distinct-taskset key of request i.
func (s *repeatStream) key(i int) int {
	if k, j := s.pick(i); k != kindFresh {
		return j
	}
	return len(s.rs.ts) + i
}

func (s *repeatStream) request(i int) call {
	kind, j := s.pick(i)
	m := mix{s.seed, i}
	frags := s.rs.frags[j]
	switch kind {
	case kindSemantic:
		perm := make([][]byte, len(frags))
		for k, p := range permutation(m, len(frags)) {
			perm[k] = frags[p]
		}
		perm[0] = withName(perm[0], "q"+strconv.Itoa(i))
		frags = perm
	case kindFresh:
		t := s.rs.ts[j].Tasks[m.intn(2, len(frags))]
		x := m.intn(3, len(t.Vertices))
		frags = append([][]byte(nil), frags...)
		frags[indexOfTask(s.rs.ts[j], t.ID)] = raisedWCET(t, x, rt.Time(1+i))
	}
	return call{path: "/v1/analyze", body: s.rs.body(j, frags)}
}

func (s *repeatStream) retry(int, reply) (call, bool) { return call{}, false }

func (s *repeatStream) observe(i int, r reply) {
	if r.err != nil || r.status != http.StatusOK {
		return
	}
	k := s.key(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.first[k]; !ok {
		s.first[k] = r.body
	} else if !bytes.Equal(f, r.body) {
		s.differs[k] = true
	}
}

// permutation returns a permutation of [0, n) drawn from m (Fisher-Yates),
// never the identity when n > 1.
func permutation(m mix, n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	for k := n - 1; k > 0; k-- {
		r := m.intn(10+k, k+1)
		p[k], p[r] = p[r], p[k]
	}
	if n > 1 && p[0] == 0 && p[1] == 1 {
		p[0], p[1] = 1, 0
	}
	return p
}

// withName inserts a task name after the id field of a task's JSON
// (encoding/json writes "id" first and omits an empty name).
func withName(frag []byte, name string) []byte {
	cut := bytes.IndexByte(frag, ',')
	out := make([]byte, 0, len(frag)+len(name)+12)
	out = append(out, frag[:cut]...)
	out = append(out, `,"name":"`...)
	out = append(out, name...)
	out = append(out, '"')
	return append(out, frag[cut:]...)
}

func indexOfTask(ts *model.Taskset, id rt.TaskID) int {
	for k, t := range ts.Tasks {
		if t.ID == id {
			return k
		}
	}
	panic("task not in its own taskset")
}

// raisedWCET returns the JSON of task t with vertex x's WCET raised by d
// (raising a WCET never violates the critical-section bound).
func raisedWCET(t *model.Task, x int, d rt.Time) []byte {
	c := *t
	c.Vertices = append([]*model.Vertex(nil), t.Vertices...)
	v := *t.Vertices[x]
	v.WCET += d
	c.Vertices[x] = &v
	b, err := json.Marshal(&c)
	if err != nil {
		panic(err) // a finalized task always marshals
	}
	return b
}

// setupRepeat generates the set, starts a server and warms both caches by
// sending every set member's exact body once.
func setupRepeat(cfg runConfig, k int) (*serveInstance, error) {
	rs, err := newRepeatSet(cfg.seed)
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
	st := newRepeatStream(cfg.seed, rs)
	si := &serveInstance{h: h, c: c, st: st, check: st.check}
	for j := range rs.ts {
		r := c.send(context.Background(), -1, call{path: "/v1/analyze", body: rs.body(j, rs.frags[j])})
		if r.err != nil || r.status != http.StatusOK {
			si.close()
			return nil, fmt.Errorf("warm-up request %d: status %d: %v", j, r.status, r.err)
		}
	}
	return si, nil
}

func runRepeat(cfg runConfig) (*outcome, error) {
	w, _ := findWorkload("serve-repeat")
	return runServe(cfg, w, setupRepeat)
}

// wireResponse is the body the server must send for ts: the same
// AnalyzeResponse built from direct analysis.Test calls.
func wireResponse(ts *model.Taskset, sc *analysis.Scratch) ([]byte, error) {
	resp := server.AnalyzeResponse{Hash: ts.Hash().String(), Results: make(map[string]*server.MethodResult)}
	for _, m := range analysis.Methods() {
		res := analysis.TestWith(sc, m, ts, analysis.Options{})
		resp.Results[string(m)] = &server.MethodResult{
			Schedulable: res.Schedulable, WCRT: res.WCRT, Rounds: res.Rounds, Reason: res.Reason}
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// decodeBody decodes an analyze body the way the server does, leaving
// the taskset unfinalized.
func decodeBody(body []byte) (*model.Taskset, error) {
	var req server.AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if req.Taskset == nil {
		return nil, fmt.Errorf("no taskset")
	}
	return req.Taskset, nil
}

// check compares every distinct taskset's served reply with a direct
// analysis of the taskset the benchmark sent.
func (s *repeatStream) check(out *outcome) {
	s.mu.Lock()
	keys := make([]int, 0, len(s.first))
	for k := range s.first {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	bad := make([]string, len(keys))
	var scs [workers]*analysis.Scratch
	for w := range scs {
		scs[w] = analysis.NewScratch()
	}
	experiments.ParallelFor(workers, len(keys), func(w, n int) {
		k := keys[n]
		var body []byte
		if k < len(s.rs.ts) {
			body = s.rs.body(k, s.rs.frags[k])
		} else {
			body = s.request(k - len(s.rs.ts)).body
		}
		ts, err := decodeBody(body)
		if err == nil {
			err = ts.Finalize()
		}
		if err != nil {
			bad[n] = fmt.Sprintf("taskset %d: %v", k, err)
			return
		}
		want, err := wireResponse(ts, scs[w])
		switch {
		case err != nil:
			bad[n] = fmt.Sprintf("taskset %d: %v", k, err)
		case !bytes.Equal(want, s.first[k]):
			bad[n] = fmt.Sprintf("taskset %d: served result differs from analysis.Test", k)
		case s.differs[k]:
			bad[n] = fmt.Sprintf("taskset %d: replies for the same taskset differ", k)
		}
	})
	for _, b := range bad {
		out.check(b == "", "serve-repeat: %s", b)
	}
}

// quietRequests is the length of the quiet pass the ledger is built from.
const quietRequests = 300

// tracedRepeat measures the request-path layers. The traced nominal
// schedule attributes each request's handler time by class; a quiet pass
// of requests sent one at a time, and shadow calls timing the public
// functions the handler runs on the same bodies, build the ledger of each
// class's handler time.
func tracedRepeat(cfg runConfig, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	si, err := setupRepeat(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer si.close()
	st := si.st.(*repeatStream)
	w, _ := findWorkload("serve-repeat")
	run, err := si.tracedSteps(w.NominalRPS, budget*3/10, quietRequests)
	if err != nil {
		return nil, err
	}
	out.attempt(run.u.sent+run.t.step.sent+run.q.step.sent, run.u.fail+run.t.step.fail+run.q.step.fail)
	classOf := func(i int) string { k, _ := st.pick(i); return kindClass[k] }
	mark := tr.mark()
	run.t.spans(tr, classOf)
	loaded := handlerLedger(tr.since(mark))
	mark = tr.mark()
	run.q.spans(tr, classOf)
	quiet := handlerLedger(tr.since(mark))

	// Shadow calls on the bodies and replies of the traced step's semantic
	// and fresh requests, for what is left of the budget.
	var pairs [][2][]byte
	var analysisMS float64
	var misses int
	for i, rep := range run.t.replies {
		k, _ := st.pick(i)
		if k == kindExact || rep.status != http.StatusOK {
			continue
		}
		pairs = append(pairs, [2][]byte{st.request(i).body, rep.body})
		if k == kindFresh {
			analysisMS += serverTimingSum(rep.timing, "analysis")
			misses++
		}
	}
	sh, err := shadowRepeat(pairs, cfg.work, time.Now().Add(budget*3/10))
	if err != nil {
		return nil, err
	}
	for name, v := range sh {
		out.set(name, v)
	}

	for k, class := range kindClass {
		out.set("server."+class+"_us", loaded["server.handler."+class].handlerUS)
		// The layers a class passes through: the measured network read and
		// server spans, plus the shadow-timed calls its path makes. The five
		// store writes and missed reads of a miss run two at a time, one per
		// analysis slot.
		q := quiet["server.handler."+class]
		acc := q.coveredUS + sh["server.bodykey_us"] + sh["obs.request_us"]
		if repeatKind(k) != kindExact {
			acc += sh["model.decode_us"] + sh["model.finalize_us"] + sh["model.hash_us"] + sh["server.encode_us"]
		}
		if repeatKind(k) == kindFresh {
			acc += (sh["store.put_us"] + sh["store.get_miss_us"]) * float64(len(analysis.Methods())) / workers
		}
		out.set("ledger."+class+"_pct", 100*acc/q.handlerUS)
		out.note("serve-repeat ledger %s: quiet handler %.1fus, accounted %.1fus", class, q.handlerUS, acc)
	}
	out.set("server.transport_us", run.t.transportUS())
	out.set("server.analysis_span_us", 1000*analysisMS/float64(max(misses, 1)))
	d := metricsDelta(run.before, run.after)
	out.set("server.cache_hit_ratio", float64(d.CacheHits)/float64(max(d.CacheHits+d.CacheMisses, 1)))
	out.set("server.analyses_per_miss", float64(d.Analyses)/float64(max(misses, 1)))
	out.set("server.coalesced", float64(d.Coalesced))
	out.set("server.rejected", float64(d.Rejected))
	out.set("loadgen.lag_p99_ms", quantile(run.u.lag, 0.99))
	out.set("experiments.busy_ratio", run.t.busyRatio())
	out.set("obs.trace_overhead_pct", 100*(run.t.step.meanServiceMS()/run.u.meanServiceMS()-1))
	st.check(out)
	out.finishSuccess()
	return out, nil
}

// classTimes is the mean handler time of one request class and how much
// of it the measured layers cover: the body read plus the union of the
// server's own spans inside ServeHTTP (µs).
type classTimes struct{ handlerUS, coveredUS float64 }

// handlerLedger computes classTimes for every "server.handler.<class>"
// root among spans.
func handlerLedger(spans []span) map[string]classTimes {
	kids := make(map[int64][]int)
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	sum := make(map[string]classTimes)
	n := make(map[string]int)
	for _, root := range spans {
		if !strings.HasPrefix(root.Name, "server.handler.") {
			continue
		}
		var cov int64
		for _, k := range kids[root.ID] {
			c := spans[k]
			switch c.Name {
			case "http.read":
				cov += c.End - c.Start
			case "server.serve_http":
				cov += covered(c, spans, kids[c.ID])
			}
		}
		t := sum[root.Name]
		t.handlerUS += durUS(time.Duration(root.End - root.Start))
		t.coveredUS += durUS(time.Duration(cov))
		sum[root.Name] = t
		n[root.Name]++
	}
	for name, t := range sum {
		sum[name] = classTimes{t.handlerUS / float64(n[name]), t.coveredUS / float64(n[name])}
	}
	return sum
}

// busyRatio is the analysis-slot busy time of the pass over its wall time
// and the slot count, from the server's analysis spans.
func (p *tracedPass) busyRatio() float64 {
	var busy int64
	for _, v := range p.traces {
		for _, s := range v.Spans {
			if s.Name == "analysis" || s.Name == "delta-base" || s.Name == "delta-analysis" {
				busy += s.DurNS
			}
		}
	}
	return float64(busy) / (float64(p.end.Sub(p.start)) * workers)
}

// transportUS is the mean client send-to-reply time minus handler time.
func (p *tracedPass) transportUS() float64 {
	var sum time.Duration
	n := 0
	for i, h := range p.handler {
		j := i - p.step.first
		if j >= 0 && j < len(p.step.sentAt) && !p.step.sentAt[j].IsZero() {
			sum += p.step.doneAt[j].Sub(p.step.sentAt[j]) - h.end.Sub(h.start)
			n++
		}
	}
	return durUS(sum) / float64(max(n, 1))
}

// metricsDelta subtracts the counters of two /v1/metrics reads.
func metricsDelta(a, b server.Metrics) server.Metrics {
	return server.Metrics{
		Analyses:       b.Analyses - a.Analyses,
		CacheHits:      b.CacheHits - a.CacheHits,
		CacheMisses:    b.CacheMisses - a.CacheMisses,
		Coalesced:      b.Coalesced - a.Coalesced,
		Rejected:       b.Rejected - a.Rejected,
		DeltaHits:      b.DeltaHits - a.DeltaHits,
		DeltaFallbacks: b.DeltaFallbacks - a.DeltaFallbacks,
		DeltaStates:    b.DeltaStates,
	}
}

// shadowRepeat times, on served (request body, reply body) pairs, the
// public calls a /v1/analyze handler makes: the body read and exact-body
// key, decode,
// Finalize, Hash, response encode, one store write and one missed store
// read per method result, and the per-request observability calls. It
// cycles through the pairs until until (at least once each) and returns
// the mean of each call in µs.
func shadowRepeat(pairs [][2][]byte, work string, until time.Time) (map[string]float64, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no served requests to shadow")
	}
	dir, err := storeDir(runConfig{work: work}, 99)
	if err != nil {
		return nil, err
	}
	sto, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]time.Duration)
	ring := obs.NewTraceRing(server.DefaultTraceBuffer)
	logger := obs.NopLogger()
	latency := obs.NewHistogram(obs.DefaultLatencyBounds())
	n := 0
	for ; n < len(pairs) || time.Now().Before(until); n++ {
		body, served := pairs[n%len(pairs)][0], pairs[n%len(pairs)][1]
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(served, &resp); err != nil {
			return nil, err
		}
		method := analysis.Methods()[n%len(analysis.Methods())]
		result, err := json.Marshal(resp.Results[string(method)])
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		raw, err := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), server.DefaultMaxBody))
		if err != nil {
			return nil, err
		}
		key := sha256.Sum256(raw)
		t1 := time.Now()
		ts, err := decodeBody(body)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := ts.Finalize(); err != nil {
			return nil, err
		}
		t3 := time.Now()
		h := ts.Hash()
		t4 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return nil, err
		}
		t5 := time.Now()
		if err := sto.Put(fmt.Sprintf("%s|%s|%d", h, method, n), result); err != nil {
			return nil, err
		}
		t6 := time.Now()
		if _, _, err := sto.Get(fmt.Sprintf("%x|absent|%d", key, n)); err != nil {
			return nil, err
		}
		t7 := time.Now()
		id := obs.NewRequestID()
		tr := obs.NewTrace(id, "analyze", http.MethodPost, "/v1/analyze", t7)
		ring.Add(tr)
		_ = obs.WithLogger(obs.WithTrace(context.Background(), tr), logger.With("req_id", id))
		tr.AddSpan("cache", t7)
		_ = tr.ServerTiming()
		tr.Finish(http.StatusOK)
		latency.Observe(time.Since(t7))
		t8 := time.Now()
		sums["server.bodykey_us"] += t1.Sub(t0)
		sums["model.decode_us"] += t2.Sub(t1)
		sums["model.finalize_us"] += t3.Sub(t2)
		sums["model.hash_us"] += t4.Sub(t3)
		sums["server.encode_us"] += t5.Sub(t4)
		sums["store.put_us"] += t6.Sub(t5)
		sums["store.get_miss_us"] += t7.Sub(t6)
		sums["obs.request_us"] += t8.Sub(t7)
	}
	out := make(map[string]float64, len(sums))
	for k, v := range sums {
		out[k] = durUS(v) / float64(n)
	}
	return out, nil
}
