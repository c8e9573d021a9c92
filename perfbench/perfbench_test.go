package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcpp/internal/model"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecGrammar pins the naming rules every workload and metric name,
// unit, direction and bound must follow.
func TestSpecGrammar(t *testing.T) {
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the grammar", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var largest float64
	for _, m := range endToEnd {
		largest = max(largest, m.Bound)
	}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			use(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q breaks the grammar", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	for _, m := range perLayer {
		for _, mv := range m.Moves {
			w, e, ok := strings.Cut(mv, ":")
			if !ok {
				t.Errorf("metric %s: moves %q is not workload:metric", m.Name, mv)
				continue
			}
			if _, ok := findWorkload(w); !ok || !isEndToEnd(e) {
				t.Errorf("metric %s: moves %q names no workload or end-to-end metric", m.Name, mv)
			}
		}
	}
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that BENCHMARK.json states exactly what the
// spec defines.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, w := range workloads {
		if !w.ProbeOnly {
			want = append(want, entry{Name: w.Name, Why: w.Why})
		}
	}
	if !reflect.DeepEqual(got.Workloads, want) {
		t.Errorf("workloads differ from spec.go:\n got %+v\nwant %+v", got.Workloads, want)
	}
	want = nil
	for _, m := range endToEnd {
		want = append(want, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &m.Bound})
	}
	if !reflect.DeepEqual(got.EndToEnd, want) {
		t.Errorf("end_to_end differs from spec.go")
	}
	want = nil
	for _, m := range perLayer {
		want = append(want, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(got.PerLayer, want) {
		t.Errorf("per_layer differs from spec.go")
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "perfbench/run.sh"}) ||
		!reflect.DeepEqual(got.Paths, []string{"perfbench"}) || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", got.Command, got.Paths, got.RunSeconds)
	}
}

// TestRepeatMix checks the serve-repeat class shares and what each class
// is: exact repeats are the set member's body, semantic repeats are new
// bodies of the same canonical taskset, fresh ones new tasksets.
func TestRepeatMix(t *testing.T) {
	rs, err := newRepeatSet(3)
	if err != nil {
		t.Fatal(err)
	}
	st := newRepeatStream(3, rs)
	const n = 100000
	var count [3]int
	for i := 0; i < n; i++ {
		k, _ := st.pick(i)
		count[k]++
	}
	for k, share := range []float64{exactShare, semanticShare, 1 - exactShare - semanticShare} {
		if got := float64(count[k]) / n; got < share-0.01 || got > share+0.01 {
			t.Errorf("%s share %.3f, want %.2f", kindClass[k], got, share)
		}
	}
	bodies := make(map[string]bool)
	for i := 0; i < 300; i++ {
		k, j := st.pick(i)
		body := st.request(i).body
		ts, err := decodeBody(body)
		if err == nil {
			err = ts.Finalize()
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		same := ts.Hash() == rs.ts[j].Hash()
		exact := bytes.Equal(body, rs.body(j, rs.frags[j]))
		switch {
		case k == kindExact && !exact:
			t.Errorf("request %d: exact repeat is not the member's body", i)
		case k == kindSemantic && (exact || !same || bodies[string(body)]):
			t.Errorf("request %d: semantic repeat must be a new body of the same taskset", i)
		case k == kindFresh && same:
			t.Errorf("request %d: fresh taskset hashes like its set member", i)
		}
		if k != kindExact {
			bodies[string(body)] = true
		}
	}
}

// TestWhatifMix checks the re-ask share, the fresh operation shares, and
// that every fresh query's patch applies to its base.
func TestWhatifMix(t *testing.T) {
	ws, err := newWhatifSet(3)
	if err != nil {
		t.Fatal(err)
	}
	st := &whatifStream{seed: 3, ws: ws}
	const n = 20000
	ops := make(map[string]int)
	reasks := 0
	for i := 0; i < n; i++ {
		if r := st.resolve(i); r != i {
			reasks++
			if r >= i || (r >= 0 && st.resolve(r) != r) {
				t.Fatalf("request %d re-asks %d, which is not an earlier fresh query", i, r)
			}
			continue
		}
		q := st.query(i)
		ops[q.patch.Ops[0].Op]++
		if i < 500 {
			if _, _, err := model.ApplyPatch(ws.bases[q.base], q.patch); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
	}
	if got := float64(reasks) / n; got < reaskShare-0.01 || got > reaskShare+0.01 {
		t.Errorf("re-ask share %.3f, want %.2f", got, reaskShare)
	}
	fresh := float64(n - reasks)
	// Operations that cannot apply fall back to set_wcet, so set_wcet may
	// run over its share and the others under theirs.
	for op, share := range map[string]float64{
		model.OpSetWCET: wcetShare, model.OpSetCSLen: cslenShare,
		model.OpSetPeriod: periodShare, model.OpAddEdge: 1 - wcetShare - cslenShare - periodShare,
	} {
		got := float64(ops[op]) / fresh
		if got < share-0.03 || got > share+0.03 {
			t.Errorf("%s share %.3f, want %.2f", op, got, share)
		}
	}
}

// TestStreamsDeterministic checks that a seed fixes the request stream
// byte for byte and another seed changes it.
func TestStreamsDeterministic(t *testing.T) {
	for _, mk := range []func(seed int64) (stream, error){
		func(seed int64) (stream, error) {
			rs, err := newRepeatSet(seed)
			return newRepeatStream(seed, rs), err
		},
		func(seed int64) (stream, error) {
			ws, err := newWhatifSet(seed)
			return &whatifStream{seed: seed, ws: ws}, err
		},
	} {
		a, err := mk(5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := mk(5)
		c, _ := mk(6)
		differ := false
		for i := 0; i < 200; i++ {
			ra, rb, rc := a.request(i), b.request(i), c.request(i)
			if ra.path != rb.path || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("request %d differs between two streams of one seed", i)
			}
			differ = differ || !bytes.Equal(ra.body, rc.body)
		}
		if !differ {
			t.Errorf("seeds 5 and 6 gave the same stream")
		}
	}
}

// TestGoldenCheck checks that the Fig. 2(a) golden check passes on the
// committed golden and fails on a perturbed one.
func TestGoldenCheck(t *testing.T) {
	golden, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(golden); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), golden...)
	i := bytes.LastIndexByte(bad, '.') + 1
	bad[i] = '0' + (bad[i]-'0'+1)%10
	if checkGolden(bad) == nil {
		t.Fatal("a perturbed golden passed the check")
	}
}

// TestSelfTimes checks that self time subtracts the union of child
// intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	st := selfTimes(spans)
	if got := st["root"].Self; got != 50 {
		t.Errorf("root self %d, want 50", got)
	}
	if got := st["a"].Self; got != 25+20 {
		t.Errorf("a self %d, want 45", got)
	}
	if got := st["a"].N; got != 2 {
		t.Errorf("a count %d", got)
	}
}

// fixedStream sends one request per index to a test server.
type fixedStream struct{}

func (fixedStream) request(int) call              { return call{path: "/", body: []byte("x")} }
func (fixedStream) retry(int, reply) (call, bool) { return call{}, false }
func (fixedStream) observe(int, reply)            {}

// TestOpenLoopTimesFromDue checks that a server stall counts against every
// request due during it, not only the ones in flight: with both
// connections stalled, the requests due meanwhile wait in the generator,
// and their latency, timed from their due times, shows the wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := calls.Add(1); n == 10 || n == 11 {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	res := c.runOpen(fixedStream{}, 0, 60, 200) // one request every 5ms
	if res.sent != 60 || res.ok != 60 {
		t.Fatalf("sent %d, ok %d", res.sent, res.ok)
	}
	late := 0
	for _, l := range res.lat {
		if l > 20 {
			late++
		}
	}
	// About 20 requests fall due during the 100ms stall; timed from their
	// send times instead, only the two stalled ones would read late.
	if late < 10 || quantile(res.lag, 1) < 50 {
		t.Errorf("%d late requests, max lag %.1fms: the stall was hidden", late, quantile(res.lag, 1))
	}
}
