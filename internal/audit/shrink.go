package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// taskSpec is an editable, unfinalized copy of one task; model.Task cannot
// be mutated after Finalize, so shrinking operates on specs and rebuilds.
type taskSpec struct {
	id       rt.TaskID
	period   rt.Time
	deadline rt.Time
	priority rt.Priority
	wcet     []rt.Time               // per vertex
	reqs     []map[rt.ResourceID]int // per vertex
	edges    [][2]int
	cs       map[rt.ResourceID]rt.Time
}

func specOf(t *model.Task) *taskSpec {
	s := &taskSpec{id: t.ID, period: t.Period, deadline: t.Deadline, priority: t.Priority,
		cs: make(map[rt.ResourceID]rt.Time)}
	for _, v := range t.Vertices {
		s.wcet = append(s.wcet, v.WCET)
		reqs := make(map[rt.ResourceID]int, len(v.Requests))
		for _, r := range v.Requests {
			if r.Count > 0 {
				reqs[r.Resource] = r.Count
				s.cs[r.Resource] = t.CS(r.Resource)
			}
		}
		s.reqs = append(s.reqs, reqs)
	}
	for _, e := range t.Edges {
		s.edges = append(s.edges, [2]int{int(e.From), int(e.To)})
	}
	return s
}

// csNeed returns the total critical-section length of vertex x, the lower
// bound on its WCET.
func (s *taskSpec) csNeed(x int) rt.Time {
	var total rt.Time
	for q, n := range s.reqs[x] {
		total += rt.SatMul(int64(n), s.cs[q])
	}
	return total
}

// dropVertex removes vertex x, bridging its predecessors to its successors
// so every remaining chain stays intact.
func (s *taskSpec) dropVertex(x int) {
	var preds, succs []int
	var kept [][2]int
	for _, e := range s.edges {
		switch {
		case e[1] == x:
			preds = append(preds, e[0])
		case e[0] == x:
			succs = append(succs, e[1])
		default:
			kept = append(kept, e)
		}
	}
	for _, p := range preds {
		for _, c := range succs {
			kept = append(kept, [2]int{p, c})
		}
	}
	seen := make(map[[2]int]bool, len(kept))
	s.edges = s.edges[:0]
	for _, e := range kept {
		if e[0] > x {
			e[0]--
		}
		if e[1] > x {
			e[1]--
		}
		if !seen[e] {
			seen[e] = true
			s.edges = append(s.edges, e)
		}
	}
	s.wcet = append(s.wcet[:x], s.wcet[x+1:]...)
	s.reqs = append(s.reqs[:x], s.reqs[x+1:]...)
}

func (s *taskSpec) clone() *taskSpec {
	c := &taskSpec{id: s.id, period: s.period, deadline: s.deadline, priority: s.priority,
		wcet: append([]rt.Time(nil), s.wcet...),
		cs:   make(map[rt.ResourceID]rt.Time, len(s.cs))}
	for q, l := range s.cs {
		c.cs[q] = l
	}
	for _, reqs := range s.reqs {
		m := make(map[rt.ResourceID]int, len(reqs))
		for q, n := range reqs {
			m[q] = n
		}
		c.reqs = append(c.reqs, m)
	}
	c.edges = append([][2]int(nil), s.edges...)
	return c
}

func (s *taskSpec) build() *model.Task {
	t := model.NewTask(s.id, s.period, s.deadline)
	t.Priority = s.priority
	for _, w := range s.wcet {
		t.AddVertex(w)
	}
	for _, e := range s.edges {
		t.AddEdge(rt.VertexID(e[0]), rt.VertexID(e[1]))
	}
	for x, reqs := range s.reqs {
		for q, n := range reqs {
			t.AddRequest(rt.VertexID(x), q, n, s.cs[q])
		}
	}
	return t
}

// buildTaskset finalizes specs into a taskset; nil on validation failure
// (a shrinking step that broke a model constraint is simply not taken).
func buildTaskset(specs []*taskSpec, m, nr int) *model.Taskset {
	ts := model.NewTaskset(m, nr)
	for _, s := range specs {
		ts.Add(s.build())
	}
	if err := ts.Finalize(); err != nil {
		return nil
	}
	return ts
}

// rebuild deep-copies a finalized taskset with per-vertex WCETs supplied by
// wcetOf (structure, requests, timing and priorities preserved).
func rebuild(ts *model.Taskset, wcetOf func(*model.Task, *model.Vertex) (rt.Time, bool)) (*model.Taskset, error) {
	specs := make([]*taskSpec, 0, len(ts.Tasks))
	for _, t := range ts.Tasks {
		s := specOf(t)
		for x, v := range t.Vertices {
			if w, ok := wcetOf(t, v); ok {
				s.wcet[x] = w
			}
		}
		specs = append(specs, s)
	}
	out := buildTaskset(specs, ts.NumProcs, ts.NumResources)
	if out == nil {
		return nil, fmt.Errorf("audit: rebuilt taskset failed validation")
	}
	return out, nil
}

// CheckTaskset runs the full differential audit — every configured method,
// its certified-verdict simulation batches, and the cross-method checks —
// on one taskset, serially. Run uses the parallel (taskset, method) job
// path instead; this entry point serves fixture replay and shrinking.
func CheckTaskset(cfg Config, ts *model.Taskset, label string, index int, seed int64) []Violation {
	cfg = cfg.normalized()
	g := &genTaskset{index: index, seed: seed, label: label, ts: ts}
	var simRuns atomic.Int64
	results := make([]methodVerdict, len(cfg.Methods))
	var out []Violation
	for mi := range cfg.Methods {
		results[mi] = checkMethod(cfg, g, mi, &simRuns)
		out = append(out, results[mi].violations...)
	}
	out = append(out, crossChecks(cfg, g, results)...)
	pvs, _ := patchChecks(cfg, g, results)
	return append(out, pvs...)
}

// shrinkAndFix shrinks the violating taskset to a minimal reproduction and
// writes it as a JSON fixture; every violation is annotated with the
// fixture path. Shrinking never suppresses anything: the original
// violations are returned even if fixture writing fails.
func shrinkAndFix(cfg Config, g *genTaskset, vs []Violation) []Violation {
	if cfg.FixtureDir == "" {
		return vs
	}
	kinds := make(map[string]bool, len(vs))
	for _, v := range vs {
		kinds[v.Kind] = true
	}
	pred := func(candidate *model.Taskset) bool {
		for _, v := range CheckTaskset(cfg, candidate, g.label, g.index, g.seed) {
			if kinds[v.Kind] {
				return true
			}
		}
		return false
	}
	minimal := Shrink(g.ts, pred)
	name := fmt.Sprintf("audit-%s-seed%d.json", vs[0].Kind, g.seed)
	path := filepath.Join(cfg.FixtureDir, name)
	if err := writeFixture(path, minimal); err != nil {
		path = fmt.Sprintf("(fixture write failed: %v)", err)
	}
	for i := range vs {
		vs[i].Fixture = path
	}
	return vs
}

// maxShrinkSteps bounds the number of candidate evaluations one shrink may
// spend; each evaluation re-runs the full audit on the candidate.
const maxShrinkSteps = 300

// Shrink greedily minimizes a taskset while pred (the "still violates"
// predicate) holds: drop whole tasks, then individual vertices, then halve
// vertex WCETs toward their critical-section floor, then halve request
// counts. The result is the smallest reproduction the budget reaches; it
// always still satisfies pred (pred(ts) is assumed true on entry).
func Shrink(ts *model.Taskset, pred func(*model.Taskset) bool) *model.Taskset {
	cur := ts
	specs := func() []*taskSpec {
		out := make([]*taskSpec, 0, len(cur.Tasks))
		for _, t := range cur.Tasks {
			out = append(out, specOf(t))
		}
		return out
	}
	steps := 0
	try := func(candidate []*taskSpec) bool {
		if steps >= maxShrinkSteps {
			return false
		}
		steps++
		built := buildTaskset(candidate, cur.NumProcs, cur.NumResources)
		if built == nil || !pred(built) {
			return false
		}
		cur = built
		return true
	}

	// Pass 1: drop whole tasks.
	for again := true; again; {
		again = false
		ss := specs()
		for i := 0; i < len(ss) && len(cur.Tasks) > 1; i++ {
			cand := append(append([]*taskSpec(nil), ss[:i]...), ss[i+1:]...)
			if try(cand) {
				again = true
				break
			}
		}
	}

	// Pass 2: drop individual vertices.
	for again := true; again; {
		again = false
		ss := specs()
		for ti := range ss {
			for x := 0; x < len(ss[ti].wcet) && len(ss[ti].wcet) > 1; x++ {
				cand := make([]*taskSpec, len(ss))
				for j := range ss {
					cand[j] = ss[j].clone()
				}
				cand[ti].dropVertex(x)
				if try(cand) {
					again = true
					break
				}
			}
			if again {
				break
			}
		}
	}

	// Pass 3: halve vertex WCETs toward their critical-section floor.
	for round := 0; round < 8; round++ {
		shrunk := false
		ss := specs()
		for ti := range ss {
			for x := range ss[ti].wcet {
				floor := ss[ti].csNeed(x)
				if floor < 1 {
					floor = 1
				}
				w := (ss[ti].wcet[x] + 1) / 2
				if w < floor {
					w = floor
				}
				if w >= ss[ti].wcet[x] {
					continue
				}
				cand := make([]*taskSpec, len(ss))
				for j := range ss {
					cand[j] = ss[j].clone()
				}
				cand[ti].wcet[x] = w
				if try(cand) {
					shrunk = true
					ss = specs()
				}
			}
		}
		if !shrunk {
			break
		}
	}

	// Pass 4: halve request counts (a count reaching 0 drops the request).
	for round := 0; round < 8; round++ {
		shrunk := false
		ss := specs()
		for ti := range ss {
			for x := range ss[ti].reqs {
				// The shrink trajectory determines the fixture bytes; walk the
				// requests in sorted resource order so identical failures
				// always minimize to identical fixtures.
				qs := make([]rt.ResourceID, 0, len(ss[ti].reqs[x]))
				for q := range ss[ti].reqs[x] {
					qs = append(qs, q)
				}
				sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
				for _, q := range qs {
					n, ok := ss[ti].reqs[x][q]
					if !ok { // dropped by an earlier successful shrink
						continue
					}
					cand := make([]*taskSpec, len(ss))
					for j := range ss {
						cand[j] = ss[j].clone()
					}
					if n/2 == 0 {
						delete(cand[ti].reqs[x], q)
					} else {
						cand[ti].reqs[x][q] = n / 2
					}
					if try(cand) {
						shrunk = true
						ss = specs()
					}
				}
			}
		}
		if !shrunk {
			break
		}
	}
	return cur
}

func writeFixture(path string, ts *model.Taskset) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return model.EncodeTaskset(f, ts)
}

// fixtureSeed recovers the originating generation seed from a fixture
// filename (audit-<kind>-seed<N>.json). Simulation offsets derive from
// that seed, so a recovered seed replays the exact runs that caught the
// violation; fixtures from other sources fall back to a name-derived seed.
func fixtureSeed(path string) int64 {
	base := filepath.Base(path)
	if i := strings.LastIndex(base, "-seed"); i >= 0 {
		digits := strings.TrimSuffix(base[i+len("-seed"):], ".json")
		if n, err := strconv.ParseInt(digits, 10, 64); err == nil {
			return n
		}
	}
	return seedFor(0, 0, base)
}

// ReplayFixture loads a taskset fixture (a shrunken reproduction written by
// a previous audit, or any cmd/taskgen output) and re-runs the full
// differential audit on it. An empty result means the regression stays
// fixed.
func ReplayFixture(cfg Config, path string) ([]Violation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ts, err := model.DecodeTaskset(f)
	if err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	return CheckTaskset(cfg, ts, "fixture", 0, fixtureSeed(path)), nil
}
