package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// dropVertex removes vertex x from the unfinalized task t, renumbering the
// vertices after it and bridging x's predecessors to its successors so
// every remaining chain stays intact. No edge is kept twice.
func dropVertex(t *model.Task, x rt.VertexID) {
	var preds, succs []rt.VertexID
	var kept []model.Edge
	for _, e := range t.Edges {
		switch {
		case e.To == x:
			preds = append(preds, e.From)
		case e.From == x:
			succs = append(succs, e.To)
		default:
			kept = append(kept, e)
		}
	}
	for _, p := range preds {
		for _, c := range succs {
			kept = append(kept, model.Edge{From: p, To: c})
		}
	}
	renumber := func(y rt.VertexID) rt.VertexID {
		if y > x {
			return y - 1
		}
		return y
	}
	seen := make(map[model.Edge]bool, len(kept))
	t.Edges = t.Edges[:0]
	for _, e := range kept {
		e = model.Edge{From: renumber(e.From), To: renumber(e.To)}
		if !seen[e] {
			seen[e] = true
			t.Edges = append(t.Edges, e)
		}
	}
	t.Vertices = slices.Delete(t.Vertices, int(x), int(x)+1)
	for _, v := range t.Vertices[x:] {
		v.ID--
	}
}

// clones returns an editable Clone of every task of ts.
func clones(ts *model.Taskset) []*model.Task {
	out := make([]*model.Task, len(ts.Tasks))
	for i, t := range ts.Tasks {
		out[i] = t.Clone()
	}
	return out
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
	steps := 0
	// try seals candidate tasks into a taskset and keeps it when it still
	// violates; a step that breaks a model constraint fails Finalize and is
	// simply not taken.
	try := func(cand []*model.Task) bool {
		if steps >= maxShrinkSteps {
			return false
		}
		steps++
		built := model.NewTaskset(cur.NumProcs, cur.NumResources)
		built.Tasks = cand
		if built.Finalize() != nil || !pred(built) {
			return false
		}
		cur = built
		return true
	}

	// Pass 1: drop whole tasks.
	for again := true; again; {
		again = false
		for i := 0; i < len(cur.Tasks) && len(cur.Tasks) > 1; i++ {
			if try(slices.Delete(clones(cur), i, i+1)) {
				again = true
				break
			}
		}
	}

	// Pass 2: drop individual vertices.
	for again := true; again; {
		again = false
		for ti := 0; ti < len(cur.Tasks) && !again; ti++ {
			for x := 0; x < len(cur.Tasks[ti].Vertices) && len(cur.Tasks[ti].Vertices) > 1; x++ {
				cand := clones(cur)
				dropVertex(cand[ti], rt.VertexID(x))
				if try(cand) {
					again = true
					break
				}
			}
		}
	}

	// Pass 3: halve vertex WCETs toward their critical-section floor.
	for round := 0; round < 8; round++ {
		shrunk := false
		for ti := range cur.Tasks {
			for x := range cur.Tasks[ti].Vertices {
				t, id := cur.Tasks[ti], rt.VertexID(x)
				wcet := t.Vertices[x].WCET
				floor := max(wcet-t.VertexNonCrit(id), 1) // its critical sections
				w := max((wcet+1)/2, floor)
				if w >= wcet {
					continue
				}
				cand := clones(cur)
				cand[ti].Vertices[x].WCET = w
				if try(cand) {
					shrunk = true
				}
			}
		}
		if !shrunk {
			break
		}
	}

	// Pass 4: halve request counts (a count reaching 0 drops the request).
	// The shrink trajectory determines the fixture bytes; profiles are
	// sorted by resource, so identical failures always minimize to
	// identical fixtures.
	for round := 0; round < 8; round++ {
		shrunk := false
		for ti := range cur.Tasks {
			for x := range cur.Tasks[ti].Vertices {
				for _, r := range cur.Tasks[ti].Vertices[x].Requests {
					n := cur.Tasks[ti].Vertices[x].Requests.Count(r.Resource)
					if n == 0 { // dropped, or never requested
						continue
					}
					cand := clones(cur)
					v := cand[ti].Vertices[x]
					j := slices.IndexFunc(v.Requests, func(c model.Request) bool { return c.Resource == r.Resource })
					if n/2 == 0 {
						v.Requests = slices.Delete(v.Requests, j, j+1)
					} else {
						v.Requests[j].Count = n / 2
					}
					if try(cand) {
						shrunk = true
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
