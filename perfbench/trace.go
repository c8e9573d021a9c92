package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer's epoch; spans of one
// request (or sweep job) share Req, and Parent is the span that made the
// call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, at exit. A nil tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64 // last span ID handed out
	reqs  int64 // last request ID handed out
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current tracer time.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(w.Sub(t.epoch))
}

// newID reserves a span ID, so a parent can hand its ID to children that
// finish before it does.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// reqBlock reserves n request IDs, base+1 .. base+n, and returns base.
func (t *tracer) reqBlock(n int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.reqs
	t.reqs += int64(n)
	return base
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req int64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// add records a finished span with a fresh ID and returns the ID.
func (t *tracer) add(parent, req int64, name string, start, end int64) int64 {
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

// mark returns a position in the span log; since(mark) returns a copy of
// the spans recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// writeTo writes the spans as JSON lines to path.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.since(0) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one layer name.
type layerStat struct {
	N     int
	Total time.Duration // summed span durations
	Self  time.Duration // summed self times
}

// meanSelfUS is the mean self time per span in microseconds.
func (l *layerStat) meanSelfUS() float64 {
	if l == nil || l.N == 0 {
		return 0
	}
	return durUS(l.Self) / float64(l.N)
}

// meanTotalUS is the mean span duration in microseconds.
func (l *layerStat) meanTotalUS() float64 {
	if l == nil || l.N == 0 {
		return 0
	}
	return durUS(l.Total) / float64(l.N)
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children's intervals cover.
func selfTimes(spans []span) map[string]*layerStat {
	children := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.N++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, spans, children[s.ID]))
	}
	return out
}

// covered returns how much of s's interval the union of the given child
// spans covers.
func covered(s span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			n += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		n += curB - curA
	}
	return n
}

// tracePath is where a traced run writes its spans: under the build
// directory, inside the checkout.
func tracePath(workload string, seed int64) string {
	return filepath.Join(buildDir(), "perfbench-traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
