package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is open-loop: request j of a step is due at
// start + j/rate whether or not earlier requests have been answered, and
// its latency is timed from that due time, so a stall that delays later
// sends counts against them too (no coordinated omission; the wrk2
// design). At most maxConns requests are in flight, one per connection;
// when the server falls behind, due requests wait in the generator and
// their lag (send time minus due time) grows.

// call is one request as sent: which endpoint, which body.
type call struct {
	path string
	body []byte
}

// reply is what the server answered.
type reply struct {
	status int
	body   []byte
	timing string // Server-Timing header
	reqID  string // X-Request-ID header
	err    error
}

// stream is a deterministic, unbounded request sequence: request i depends
// only on the seed and i, so the same seed gives a byte-identical stream.
type stream interface {
	request(i int) call
	// retry returns the request to re-send after a reply the client can
	// recover from (a delta query whose base the server has evicted), or
	// ok=false.
	retry(i int, r reply) (call, bool)
	// observe receives every final reply, from the sending goroutine.
	observe(i int, r reply)
}

// client sends stream requests over at most maxConns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
	// seqHeader, when set, tags each request with its stream index so a
	// traced handler can attribute its time; untraced runs send nothing
	// extra.
	seqHeader atomic.Bool
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}}
}

const seqHeader = "X-Perfbench-Seq"

// send posts one call and reads the whole reply.
func (c *client) send(ctx context.Context, i int, cl call) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if c.seqHeader.Load() {
		req.Header.Set(seqHeader, strconv.Itoa(i))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err,
		timing: resp.Header.Get("Server-Timing"), reqID: resp.Header.Get("X-Request-ID")}
}

// do sends request i, following the stream's retry rule once.
func (c *client) do(ctx context.Context, st stream, i int, cl call) (reply, bool) {
	r := c.send(ctx, i, cl)
	if again, ok := st.retry(i, r); ok {
		return c.send(ctx, i, again), true
	}
	return r, false
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// stepResult is one schedule's outcome. lat and lag hold, in
// milliseconds, the latency (from the due time) and lag (send time minus
// due time) of every request sent; a failed request's latency is +Inf, so
// it misses any limit. sentAt and doneAt are indexed by schedule position
// and zero for requests never sent.
type stepResult struct {
	rate                      float64
	scheduled, sent, ok, fail int
	retried                   int
	aborted                   bool // the generator fell too far behind and stopped
	lat, lag                  []float64
	first                     int // stream index of schedule position 0
	sentAt, doneAt            []time.Time
}

// meets reports whether the step meets the latency limit: every scheduled
// request sent and answered successfully, and p99 within sloP99.
func (s *stepResult) meets() bool {
	return !s.aborted && s.fail == 0 && s.sent == s.scheduled &&
		quantile(s.lat, 0.99) <= durMS(sloP99)
}

// meanServiceMS is the mean send-to-reply time of the requests sent.
func (s *stepResult) meanServiceMS() float64 {
	var sum time.Duration
	for j := range s.sentAt {
		if !s.sentAt[j].IsZero() {
			sum += s.doneAt[j].Sub(s.sentAt[j])
		}
	}
	return durMS(sum) / float64(max(s.sent, 1))
}

// abortLag stops a step whose generator runs this far behind schedule: the
// limit is already missed and the backlog would only grow.
const abortLag = 10 * sloP99

// spinWindow is how early the generator wakes before a due time and then
// yields until it arrives; a plain sleep overshoots by a few hundred
// microseconds, which would swamp sub-millisecond latencies.
const spinWindow = 400 * time.Microsecond

// runOpen sends n requests of st, starting at stream index first, at rate
// per second on a fixed schedule.
func (c *client) runOpen(st stream, first, n int, rate float64) stepResult {
	res := stepResult{rate: rate, scheduled: n, first: first,
		sentAt: make([]time.Time, n), doneAt: make([]time.Time, n)}
	okv := make([]bool, n)
	retried := make([]bool, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	due := func(j int) time.Time { return start.Add(time.Duration(float64(j) * interval)) }
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(maxConns)
	for k := 0; k < maxConns; k++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n || aborted.Load() {
					return
				}
				cl := st.request(first + j) // built before the due time
				waitUntil(due(j))
				t := time.Now()
				if t.Sub(due(j)) > abortLag {
					aborted.Store(true)
					return
				}
				r, re := c.do(context.Background(), st, first+j, cl)
				res.doneAt[j] = time.Now()
				st.observe(first+j, r)
				res.sentAt[j], retried[j] = t, re
				okv[j] = r.err == nil && r.status == http.StatusOK
			}
		}()
	}
	wg.Wait()
	res.aborted = aborted.Load()
	for j := 0; j < n; j++ {
		if res.sentAt[j].IsZero() {
			continue
		}
		res.sent++
		if retried[j] {
			res.retried++
		}
		l := durMS(res.doneAt[j].Sub(due(j)))
		if okv[j] {
			res.ok++
		} else {
			res.fail++
			l = math.Inf(1)
		}
		res.lat = append(res.lat, l)
		res.lag = append(res.lag, durMS(res.sentAt[j].Sub(due(j))))
	}
	return res
}

// runClosed keeps one request in flight per connection for d and returns
// the requests answered successfully, the failures, and the stream index
// after the last request.
func (c *client) runClosed(st stream, first int, d time.Duration) (ok, fail, next int) {
	var idx atomic.Int64
	idx.Store(int64(first))
	var okN, failN atomic.Int64
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(maxConns)
	for k := 0; k < maxConns; k++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(idx.Add(1)) - 1
				r, _ := c.do(context.Background(), st, i, st.request(i))
				st.observe(i, r)
				if r.err == nil && r.status == http.StatusOK {
					okN.Add(1)
				} else {
					failN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(okN.Load()), int(failN.Load()), int(idx.Load())
}

// waitUntil sleeps until shortly before t, then yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
