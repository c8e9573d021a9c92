package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "abc123|DPCP-p-EP|pc=1000|pl=0" // cache keys contain separators
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	val := []byte(`{"schedulable":true}`)
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v, %v; want %q", got, ok, err, val)
	}
	// Re-put is idempotent; a different key is independent.
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key + "x"); ok {
		t.Fatal("distinct key aliased")
	}
	if n, err := s.Entries(); err != nil || n != 1 {
		t.Fatalf("Entries = %d, %v; want 1", n, err)
	}
}

// TestStoreSurvivesReopen is the property the whole package exists for:
// values written by one Store instance are served by a fresh instance on
// the same directory, as after a daemon restart.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := s1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, ok, err := s2.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d after reopen: %q, %v, %v", i, got, ok, err)
		}
	}
	if m, err := s2.Entries(); err != nil || m != n {
		t.Fatalf("Entries after reopen = %d, %v; want %d", m, err, n)
	}
}

func TestStoreConcurrentSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writers of one content-addressed key are idempotent: the
	// surviving value is a complete copy of the (identical) payload.
	val := bytes.Repeat([]byte("deterministic-result "), 1024)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put("k", val); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := s.Get("k")
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("concurrent puts corrupted the value: ok=%v err=%v len=%d", ok, err, len(got))
	}
}

// TestEntriesCountsOnlyStoredValues: foreign files nested under the store
// root (like the server's sweep-job checkpoints under jobs/) and orphaned
// temp files must not inflate the entry count.
func TestEntriesCountsOnlyStoredValues(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "deadbeef.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A temp file orphaned by a crash mid-Put, inside a shard directory.
	shard := filepath.Dir(s.path("a"))
	if err := os.WriteFile(filepath.Join(shard, "x.tmp123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Entries(); err != nil || n != 2 {
		t.Fatalf("Entries = %d, %v; want 2 (checkpoints and temp files excluded)", n, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	for i := 0; i < 3; i++ {
		if err := writeFileAtomic(path, []byte(fmt.Sprintf("state-%d", i)), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "state-2" {
		t.Fatalf("final content %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries (temp files leaked?)", len(ents))
	}
}
