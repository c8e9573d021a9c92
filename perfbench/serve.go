package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/obs"
	"dpcpp/internal/server"
)

// host serves a server.Server in-process on a loopback listener, the way
// cmd/schedd wires it into an http.Server.
type host struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
	// log, while set, receives each tagged request's handler timings.
	log atomic.Pointer[handlerLog]
}

// startHost builds a server with two analysis workers and its result store
// in storeDir, and starts serving it.
func startHost(storeDir string) (*host, error) {
	srv, err := server.New(server.Config{Workers: workers, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &host{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// ServeHTTP passes requests to the server. While a handler log is set,
// tagged requests have their body read here first, so the network read
// and the rest of ServeHTTP are timed apart.
func (h *host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	log := h.log.Load()
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if log == nil || err != nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	r.Header.Del(seqHeader)
	t0 := time.Now()
	body, rerr := io.ReadAll(r.Body)
	t1 := time.Now()
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	h.srv.ServeHTTP(w, r)
	log.add(seq, handlerTiming{start: t0, read: t1, end: time.Now()})
}

// close stops serving, waits for the serve loop to exit, and stops the
// server's sweep runner.
func (h *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.done
	h.srv.Close()
}

// metrics reads GET /v1/metrics.
func (h *host) metrics() (server.Metrics, error) {
	var m server.Metrics
	err := h.getJSON("/v1/metrics", &m)
	return m, err
}

// traces reads GET /v1/debug/traces.
func (h *host) traces() ([]obs.TraceView, error) {
	var d server.TraceDump
	err := h.getJSON("/v1/debug/traces", &d)
	return d.Traces, err
}

// getJSON uses its own connection, never one of the load generator's.
func (h *host) getJSON(path string, v any) error {
	resp, err := http.Get(h.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// handlerTiming is one request's time in the handler: the body read ends
// at read, ServeHTTP at end.
type handlerTiming struct{ start, read, end time.Time }

type handlerLog struct {
	mu sync.Mutex
	m  map[int]handlerTiming
}

func (l *handlerLog) add(seq int, t handlerTiming) {
	l.mu.Lock()
	l.m[seq] = t
	l.mu.Unlock()
}

// tracePoller collects the server's request traces from GET
// /v1/debug/traces often enough that the 256-entry ring never wraps
// between polls at the rates traced runs use.
type tracePoller struct {
	h    *host
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	got  map[string]obs.TraceView // by request ID
}

func startTracePoller(h *host) *tracePoller {
	p := &tracePoller{h: h, stop: make(chan struct{}), done: make(chan struct{}),
		got: make(map[string]obs.TraceView)}
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			p.poll()
			select {
			case <-p.stop:
				p.poll()
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *tracePoller) poll() {
	views, err := p.h.traces()
	if err != nil {
		return // a missed poll only loses attribution for a few requests
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range views {
		if v.Status != 0 { // finished
			p.got[v.ID] = v
		}
	}
}

func (p *tracePoller) finish() map[string]obs.TraceView {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got
}

// serveInstance is one set-up serve workload: its server, client and
// request stream, plus the check of every reply the stream observed.
type serveInstance struct {
	h     *host
	c     *client
	st    stream
	check func(out *outcome)
	next  int // next unused stream index
}

func (si *serveInstance) close() {
	si.c.close()
	si.h.close()
}

// serveSetup builds one instance; setups are numbered so each gets a fresh
// store directory.
type serveSetup func(cfg runConfig, k int) (*serveInstance, error)

// storeDir returns a fresh store directory for set-up k.
func storeDir(cfg runConfig, k int) (string, error) {
	d := filepath.Join(cfg.work, "store-"+strconv.Itoa(k))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// setupServe builds setupReps instances, keeps the last and reports the
// median build time.
func setupServe(cfg runConfig, setup serveSetup) (*serveInstance, float64, error) {
	var times []float64
	var si *serveInstance
	for k := 0; k < setupReps; k++ {
		if si != nil {
			si.close()
		}
		t0 := time.Now()
		var err error
		if si, err = setup(cfg, k); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return si, median(times), nil
}

// runServe is the untraced run of a serve workload, then its checks. The
// timed phase is the nominal-rate schedule (half the time) alternating
// with a closed loop over the same connections (15%), whose throughput
// bounds any sustainable open-loop rate, and then the ladder walk down
// from that bound.
func runServe(cfg runConfig, w workload, setup serveSetup) (*outcome, error) {
	out := newOutcome()
	si, setupS, err := setupServe(cfg, setup)
	if err != nil {
		return nil, err
	}
	defer si.close()
	out.set("setup_s", setupS)

	// The nominal schedule and the closed loop alternate for serveRounds
	// rounds, and each figure is the median over rounds: the slow spells of
	// a shared machine then move single rounds, not the figures.
	budget := cfg.seconds
	start := time.Now()
	perRound := int(w.NominalRPS * budget.Seconds() / 2 / serveRounds)
	closedFor := budget * 15 / 100 / serveRounds
	var lat, lag, p50s, p95s, p99s, rates []float64
	nominalMeets := true
	runtime.GC()
	heap := startHeapSampler()
	for k := 0; k < serveRounds; k++ {
		nom := si.step(w.NominalRPS, perRound)
		out.attempt(nom.sent, nom.fail)
		nominalMeets = nominalMeets && nom.meets()
		lat, lag = append(lat, nom.lat...), append(lag, nom.lag...)
		p50s = append(p50s, quantile(nom.lat, 0.5))
		p95s = append(p95s, quantile(nom.lat, 0.95))
		p99s = append(p99s, quantile(nom.lat, 0.99))
		ok, fail, next := si.c.runClosed(si.st, si.next, closedFor)
		si.next = next
		out.attempt(ok+fail, fail)
		rates = append(rates, float64(ok)/closedFor.Seconds())
	}
	out.set("heap_peak_mb", heap.Stop())
	capacity := median(rates)

	best, probes := si.ladder(w.NominalRPS, nominalMeets, capacity, start.Add(budget))
	for _, p := range probes {
		out.attempt(p.sent, p.fail)
	}

	out.set("latency_p50_ms", median(p50s))
	out.set("sweep_tasksets_per_s", capacity)
	out.note("%s: nominal %.0f/s, %d rounds of %d: p50 %.3fms p95 %.3fms p99 %.3fms (n=%d), lag p99 %.3fms",
		w.Name, w.NominalRPS, serveRounds, perRound, median(p50s), median(p95s), median(p99s),
		len(lat), quantile(lag, 0.99))
	out.note("%s: closed loop %.0f/s per round: %.0f", w.Name, capacity, rates)
	for _, p := range probes {
		out.note("%s: ladder %.0f/s: %d/%d sent, %d ok, %d failed, p99 %.3fms, lag p99 %.3fms, aborted=%v, meets=%v",
			w.Name, p.rate, p.sent, p.scheduled, p.ok, p.fail, quantile(p.lat, 0.99),
			quantile(p.lag, 0.99), p.aborted, p.meets())
	}
	out.note("%s: max rate at p99<=%v (not gated): %.0f/s", w.Name, sloP99, best)

	si.check(out)
	out.finishSuccess()
	return out, nil
}

// step runs one open-loop schedule of n requests at rate.
func (si *serveInstance) step(rate float64, n int) stepResult {
	n = max(n, 1)
	r := si.c.runOpen(si.st, si.next, n, rate)
	si.next += n
	return r
}

// ladder walks the rungs nominal*ladderStep^k down, one rung at a time,
// from the highest rung below capacity (the closed-loop throughput, which
// no open-loop rate can sustain) until one meets the limit, and returns
// that rung's rate and every probe run. Walking down from above, a probe
// that misses the limit by chance costs one rung, never the search, and a
// rung that misses is probed once more before the walk moves on. The
// nominal step counts as the probe of rung 0, and is the answer when the
// deadline cuts the walk short. Each probe sends at least probeSamples
// requests; a probe that falls far behind stops early. It returns 0 if no
// rung met the limit.
func (si *serveInstance) ladder(nominal float64, nominalMeets bool, capacity float64, deadline time.Time) (float64, []stepResult) {
	rung := func(k int) float64 { return nominal * math.Pow(ladderStep, float64(k)) }
	top := min(int(math.Floor(math.Log(capacity/nominal)/math.Log(ladderStep))), ladderMaxK)
	var probes []stepResult
	for k := top; k >= ladderMinK; k-- {
		if k == 0 && nominalMeets {
			return rung(0), probes
		}
		if time.Now().After(deadline) {
			break
		}
		rate := rung(k)
		for try := 0; try < 2; try++ {
			runtime.GC()
			r := si.step(rate, max(probeSamples, int(rate)))
			probes = append(probes, r)
			if r.meets() {
				return rate, probes
			}
		}
	}
	if nominalMeets {
		return rung(0), probes
	}
	return 0, probes
}

// tracedServeRun is the common part of a serve workload's traced run: the
// nominal schedule once untraced (u) and once traced (t), then a quiet
// pass (q) of requests sent one at a time, and the server counters across
// the traced step.
type tracedServeRun struct {
	u             stepResult
	t, q          tracedPass
	before, after server.Metrics
}

// tracedPass is one traced sequence of requests: the client-side timings,
// the handler log, the server's own traces by request ID, and the replies.
type tracedPass struct {
	step       stepResult
	handler    map[int]handlerTiming
	traces     map[string]obs.TraceView
	replies    map[int]reply
	start, end time.Time
}

// recordingStream wraps a stream, keeping the replies of one pass.
type recordingStream struct {
	stream
	mu      sync.Mutex
	replies map[int]reply
}

func (r *recordingStream) observe(i int, rep reply) {
	r.stream.observe(i, rep)
	r.mu.Lock()
	r.replies[i] = rep
	r.mu.Unlock()
}

// tracedSteps runs the nominal schedule for d untraced and then traced,
// and then a quiet pass of quiet requests.
func (si *serveInstance) tracedSteps(rate float64, d time.Duration, quiet int) (*tracedServeRun, error) {
	n := max(int(rate*d.Seconds()), 100)
	runtime.GC()
	tr := &tracedServeRun{u: si.step(rate, n)}
	var err error
	if tr.before, err = si.h.metrics(); err != nil {
		return nil, err
	}
	tr.t = si.traced(func(st stream) stepResult {
		r := si.c.runOpen(st, si.next, n, rate)
		si.next += n
		return r
	})
	if tr.after, err = si.h.metrics(); err != nil {
		return nil, err
	}
	tr.q = si.traced(func(st stream) stepResult { return si.sequential(st, quiet) })
	return tr, nil
}

// traced runs one pass with the handler log and trace poller on.
func (si *serveInstance) traced(pass func(stream) stepResult) tracedPass {
	log := &handlerLog{m: make(map[int]handlerTiming)}
	rec := &recordingStream{stream: si.st, replies: make(map[int]reply)}
	si.h.log.Store(log)
	si.c.seqHeader.Store(true)
	poller := startTracePoller(si.h)
	runtime.GC()
	p := tracedPass{start: time.Now()}
	p.step = pass(rec)
	p.end = time.Now()
	p.traces = poller.finish()
	si.c.seqHeader.Store(false)
	si.h.log.Store(nil)
	p.handler, p.replies = log.m, rec.replies
	return p
}

// sequential sends n requests one at a time from one goroutine, so each
// has the machine to itself: handler times then compare with shadow
// timings taken the same way.
func (si *serveInstance) sequential(st stream, n int) stepResult {
	res := stepResult{scheduled: n, first: si.next,
		sentAt: make([]time.Time, n), doneAt: make([]time.Time, n)}
	for j := 0; j < n; j++ {
		cl := st.request(si.next + j)
		res.sentAt[j] = time.Now()
		r, _ := si.c.do(context.Background(), st, si.next+j, cl)
		res.doneAt[j] = time.Now()
		st.observe(si.next+j, r)
		res.sent++
		if r.err == nil && r.status == http.StatusOK {
			res.ok++
		} else {
			res.fail++
		}
	}
	si.next += n
	return res
}

// spans records the pass: per request a client span "loadgen.request"
// from send to reply, the handler span "server.handler.<class>" inside it
// with the body read and ServeHTTP as children, and the server's own trace
// spans (cache, flight, store, analysis, ...) inside ServeHTTP.
func (p *tracedPass) spans(t *tracer, classOf func(i int) string) {
	base := t.reqBlock(p.step.scheduled)
	for j := range p.step.sentAt {
		if p.step.sentAt[j].IsZero() {
			continue
		}
		i := p.step.first + j
		req := base + int64(j) + 1
		cid := t.newID()
		if h, ok := p.handler[i]; ok {
			hid := t.newID()
			t.add(hid, req, "http.read", t.at(h.start), t.at(h.read))
			sid := t.newID()
			if v, ok := p.traces[p.replies[i].reqID]; ok {
				for _, s := range v.Spans {
					st := time.Unix(0, v.StartUnix+s.StartNS)
					t.add(sid, req, "server."+s.Name, t.at(st), t.at(st)+s.DurNS)
				}
			}
			t.record(sid, hid, req, "server.serve_http", t.at(h.read), t.at(h.end))
			t.record(hid, cid, req, "server.handler."+classOf(i), t.at(h.start), t.at(h.end))
		}
		t.record(cid, 0, req, "loadgen.request", t.at(p.step.sentAt[j]), t.at(p.step.doneAt[j]))
	}
}

// serverTimingSum sums the durations (ms) of the named Server-Timing
// entries.
func serverTimingSum(header, name string) float64 {
	var sum float64
	for _, part := range strings.Split(header, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if len(fields) < 2 || fields[0] != name {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimPrefix(fields[1], "dur="), 64); err == nil {
			sum += v
		}
	}
	return sum
}
