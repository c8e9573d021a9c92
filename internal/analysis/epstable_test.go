package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dpcpp/internal/rt"
)

// mapRows is the map-backed row capture the table replaces: every entry,
// sorted by (proc, base).
func mapRows(model map[epsKey]rt.Time) []epsRow {
	rows := make([]epsRow, 0, len(model))
	for k, v := range model {
		rows = append(rows, epsRow{key: k, val: v})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].key.proc != rows[b].key.proc {
			return rows[a].key.proc < rows[b].key.proc
		}
		return rows[a].key.base < rows[b].key.base
	})
	return rows
}

// checkTable asserts the table holds exactly the model's entries: every
// model key reads back its value, a sample of absent keys misses, and the
// captured rows equal the map-backed capture.
func checkTable(t *testing.T, step int, m *epsTable, model map[epsKey]rt.Time, rng *rand.Rand) {
	t.Helper()
	if m.n != len(model) {
		t.Fatalf("step %d: table holds %d entries, model %d", step, m.n, len(model))
	}
	for k, want := range model {
		if got, ok := m.get(k); !ok || got != want {
			t.Fatalf("step %d: get(%v) = %d, %v; want %d", step, k, got, ok, want)
		}
	}
	for i := 0; i < 16; i++ {
		k := randEpsKey(rng)
		_, inModel := model[k]
		if _, ok := m.get(k); ok != inModel {
			t.Fatalf("step %d: get(%v) hit=%v, model hit=%v", step, k, ok, inModel)
		}
	}
	got := m.appendRows(nil)
	if want := mapRows(model); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("step %d: captured rows diverge from the map capture:\n got:  %v\n want: %v", step, got, want)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1].key, got[i].key
		if a.proc > b.proc || (a.proc == b.proc && a.base >= b.base) {
			t.Fatalf("step %d: rows %d/%d out of (proc, base) order: %v then %v", step, i-1, i, a, b)
		}
	}
}

// randEpsKey draws keys from a small space, so puts collide with existing
// entries (overwrites) and probe chains form.
func randEpsKey(rng *rand.Rand) epsKey {
	return epsKey{proc: rt.ProcID(rng.Intn(8)), base: rt.Time(rng.Intn(200)) * 1000}
}

// TestEpsTableMatchesMapModel drives the epsilon memo table and a plain
// map through the same random put/get/reset sequences: tasks of random
// size (so the table grows in the middle of a task), overwrites, and
// generation-counter wrap-around.
func TestEpsTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var m epsTable
	model := make(map[epsKey]rt.Time)
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 4:
			// Task boundary.
			m.reset()
			clear(model)
		case r < 6:
			// Jump to the last generations (forward only: every existing
			// stamp stays older), so the following resets wrap the counter
			// while stale slots remain; none of them may revive.
			m.reset()
			clear(model)
			if m.gen < math.MaxUint32-1 {
				m.gen = math.MaxUint32 - uint32(rng.Intn(2))
			}
		default:
			k := randEpsKey(rng)
			if rng.Intn(2) == 0 {
				v := rt.Time(rng.Int63n(1 << 40))
				if rng.Intn(10) == 0 {
					v = rt.Infinity
				}
				m.put(k, v)
				model[k] = v
			}
		}
		checkTable(t, step, &m, model, rng)
	}
}

func sortedKeys(model map[epsKey]rt.Time) []epsKey {
	rows := mapRows(model)
	keys := make([]epsKey, len(rows))
	for i, r := range rows {
		keys[i] = r.key
	}
	return keys
}

// TestEpsTableGrowsMidTask fills one task's table far past its initial
// size, then checks that the grown table keeps every entry, resets in
// O(1) and serves the next task without allocating.
func TestEpsTableGrowsMidTask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m epsTable
	model := make(map[epsKey]rt.Time)
	for i := 0; i < 1000; i++ {
		k := epsKey{proc: rt.ProcID(i % 32), base: rt.Time(rng.Int63n(1 << 50))}
		m.put(k, rt.Time(i))
		model[k] = rt.Time(i)
	}
	checkTable(t, 0, &m, model, rng)
	if len(m.slots) < 2*len(model) {
		t.Fatalf("table of %d entries has %d slots, want load <= 1/2", len(model), len(m.slots))
	}
	keys := sortedKeys(model)
	allocs := testing.AllocsPerRun(20, func() {
		m.reset()
		for _, k := range keys {
			m.put(k, 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state reset+refill: %v allocs/run, want 0", allocs)
	}
}
