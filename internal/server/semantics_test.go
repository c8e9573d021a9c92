package server

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"dpcpp/internal/analysis"
)

// TestStoreKeyedBySemanticsVersion: a persisted result written under other
// analysis semantics is a miss that gets re-analyzed, never served. That
// covers the unversioned keys of builds that predate SemanticsVersion and
// entries of any other version. The fresh answer lands under the current
// version, so a restart on the same store serves it without analysis.
func TestStoreKeyedBySemanticsVersion(t *testing.T) {
	dir := t.TempDir()
	ts := jsonRoundTrip(t, testTaskset(t, 0))
	h := ts.Hash()
	m, opts := analysis.DPCPpEN, analysis.Options{}
	want := analysis.Test(m, ts, opts)

	s := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	stale := &MethodResult{Schedulable: !want.Schedulable, Reason: "stale answer"}
	current := cacheKey(h, m, opts, false)
	sv := "|sv=" + strconv.Itoa(analysis.SemanticsVersion)
	if !strings.HasSuffix(current, sv) {
		t.Fatalf("cache key %q does not end in %q", current, sv)
	}
	for _, key := range []string{
		strings.TrimSuffix(current, sv),
		strings.Replace(current, sv, "|sv="+strconv.Itoa(analysis.SemanticsVersion-1), 1),
		strings.Replace(current, sv, "|sv="+strconv.Itoa(analysis.SemanticsVersion+1), 1),
	} {
		s.engine.storePut(key, stale)
	}
	if got := s.engine.storePuts.Load(); got != 3 {
		t.Fatalf("seeded %d stale entries, want 3", got)
	}

	mr, analyzed, err := s.engine.analyze(context.Background(), h, ts, m, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if !analyzed || s.engine.analyses.Load() != 1 || s.engine.storeHits.Load() != 0 {
		t.Fatalf("stale entries served: analyzed=%v analyses=%d store_hits=%d",
			analyzed, s.engine.analyses.Load(), s.engine.storeHits.Load())
	}
	if mr.Schedulable != want.Schedulable || mr.Reason != want.Reason {
		t.Fatalf("got %+v, want the fresh answer %+v", mr, want)
	}

	restarted := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	mr, analyzed, err = restarted.engine.analyze(context.Background(), h, ts, m, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if analyzed || restarted.engine.storeHits.Load() != 1 || mr.Reason != want.Reason {
		t.Fatalf("restart on the same store: analyzed=%v store_hits=%d reason %q, want a store hit with %q",
			analyzed, restarted.engine.storeHits.Load(), mr.Reason, want.Reason)
	}
}
