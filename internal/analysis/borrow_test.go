package analysis

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// borrowCorpus is every taskset the borrowing tests analyze: the
// light-task set, whose tasks take the Sec. VI shared view, and the
// equivalence corpus. The light set comes first so that both goroutines of
// TestConcurrentAnalysesShareTaskset are still running when they take the
// shared view: the race detector can miss a conflict with a goroutine
// that has already exited.
func borrowCorpus(t *testing.T) []*model.Taskset {
	return append([]*model.Taskset{lightSet(t)}, equivalenceCorpus(t)...)
}

// TestBorrowedTaskVectorsStayReadOnly: the EN view borrows a finalized
// task's PathBounds vectors and the shared view its request totals, so no
// analysis may write either. EN, EP and EP at path cap 1 (every multi-path
// task falls back to EN) run over the corpus on one recycled Scratch;
// afterwards every task's stored bounds must equal a fresh computation and
// its totals the sum over its vertices.
func TestBorrowedTaskVectorsStayReadOnly(t *testing.T) {
	corpus := borrowCorpus(t)
	sc := NewScratch()
	for _, ts := range corpus {
		for _, c := range []struct {
			m  Method
			pc int
		}{{DPCPpEN, DefaultPathCap}, {DPCPpEP, DefaultPathCap}, {DPCPpEP, 1}} {
			TestWith(sc, c.m, ts, Options{PathCap: c.pc})
		}
	}
	for ci, ts := range corpus {
		for _, task := range ts.Tasks {
			if got, want := *task.PathBounds(), task.ComputePathBounds(); !reflect.DeepEqual(got, want) {
				t.Errorf("corpus %d task %d: PathBounds %+v, recomputed %+v", ci, task.ID, got, want)
			}
			want := make([]int64, ts.NumResources)
			for _, v := range task.Vertices {
				for _, r := range v.Requests {
					want[r.Resource] += int64(r.Count)
				}
			}
			if got := task.RequestTotals(); !slices.Equal(got, want) {
				t.Errorf("corpus %d task %d: RequestTotals %v, vertex sum %v", ci, task.ID, got, want)
			}
		}
	}
}

// TestConcurrentAnalysesShareTaskset runs two goroutines, each with its own
// Scratch, over the same finalized tasksets with EN and EP. Their views
// borrow the shared tasks' vectors; under -race this checks that nothing
// writes them, and both goroutines must reproduce the sequential results.
func TestConcurrentAnalysesShareTaskset(t *testing.T) {
	corpus := borrowCorpus(t)
	type outcome struct {
		ok     bool
		rounds int
		wcrt   map[rt.TaskID]rt.Time
	}
	methods := []Method{DPCPpEN, DPCPpEP}
	want := make([][]outcome, len(corpus))
	for ci, ts := range corpus {
		for _, m := range methods {
			res := Test(m, ts, Options{})
			want[ci] = append(want[ci], outcome{res.Schedulable, res.Rounds, res.WCRT})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for ci, ts := range corpus {
				for mi, m := range methods {
					res := TestWith(sc, m, ts, Options{})
					got := outcome{res.Schedulable, res.Rounds, res.WCRT}
					if !reflect.DeepEqual(got, want[ci][mi]) {
						t.Errorf("goroutine %d corpus %d %s: %v, sequential %v", g, ci, m, got, want[ci][mi])
					}
				}
			}
		}()
	}
	wg.Wait()
}
