package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenFailsOnUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root, permission bits do not apply")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open on a read-only directory succeeded")
	}
	if !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("error %q does not name the writability problem", err)
	}
}

// TestOpenFailsOnFileOccupiedPath: a regular file where the store directory
// should be must fail at startup, not on the first Put.
func TestOpenFailsOnFileOccupiedPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open on a path occupied by a regular file succeeded")
	}
}

func TestHooksInjectReadAndWriteFaults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	errIO := errors.New("input/output error")
	s.SetHooks(&Hooks{BeforeRead: func(string) error { return errIO }})
	if _, _, err := s.Get("k"); !errors.Is(err, errIO) {
		t.Fatalf("Get under read fault: %v, want injected error", err)
	}
	// A read fault is an error, not a miss: Get must not report a clean
	// absent entry when the disk is failing.
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("Get reported presence under an injected read fault")
	}

	s.SetHooks(&Hooks{BeforeWrite: func(string) error { return errIO }})
	if err := s.Put("k2", []byte("v2")); !errors.Is(err, errIO) {
		t.Fatalf("Put under write fault: %v, want injected error", err)
	}

	// Removing the hooks restores normal service and the earlier value.
	s.SetHooks(nil)
	got, ok, err := s.Get("k")
	if err != nil || !ok || string(got) != "v" {
		t.Fatalf("Get after clearing hooks: %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := s.Get("k2"); ok {
		t.Fatal("failed Put left a value behind")
	}
}

// TestTornWriteLeavesTempAndOldValue: an ErrTornWrite injection models power
// loss after the write was acknowledged — the writer sees success, the
// target keeps its old content, and the temp file stays behind (exactly the
// debris Entries must ignore and a restart must tolerate).
func TestTornWriteLeavesTempAndOldValue(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	s.SetHooks(&Hooks{BeforeRename: func(string) error { return ErrTornWrite }})
	if err := s.Put("k", []byte("new")); err != nil {
		t.Fatalf("torn write must report success (the crash happens after the ack): %v", err)
	}
	s.SetHooks(nil)
	got, ok, err := s.Get("k")
	if err != nil || !ok || string(got) != "old" {
		t.Fatalf("after torn write: %q, %v, %v; want the pre-write value", got, ok, err)
	}
	shard := filepath.Dir(s.path("k"))
	ents, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	temps := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			temps++
		}
	}
	if temps != 1 {
		t.Fatalf("%d temp files after torn write, want exactly 1 left behind", temps)
	}
	if n, err := s.Entries(); err != nil || n != 1 {
		t.Fatalf("Entries = %d, %v; torn-write debris must not count", n, err)
	}
	// A fresh Open on the littered directory — the restart after the
	// simulated crash — works and serves the old value.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Get("k"); err != nil || !ok || string(got) != "old" {
		t.Fatalf("after reopen: %q, %v, %v", got, ok, err)
	}
}

// TestRenameFaultFailsCleanly: a non-torn rename fault must fail the write
// and clean up its temp file.
func TestRenameFaultFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	errPerm := errors.New("permission denied")
	s.SetHooks(&Hooks{BeforeRename: func(string) error { return errPerm }})
	if err := s.Put("k", []byte("v")); !errors.Is(err, errPerm) {
		t.Fatalf("Put under rename fault: %v, want injected error", err)
	}
	s.SetHooks(nil)
	shard := filepath.Dir(s.path("k"))
	if ents, err := os.ReadDir(shard); err == nil && len(ents) != 0 {
		t.Fatalf("failed rename left %d files behind", len(ents))
	}
}

func TestWriteFileSyncRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", "checkpoint.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"state":"running"}`)
	if err := s.WriteFile(path, want, true); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("synced write round trip: %q, %v", got, err)
	}
}

// BenchmarkWriteFile quantifies the fsync tradeoff documented on
// Store.WriteFile: sync mode pays two fsyncs (file + parent directory) per
// write, which is why it is reserved for sweep checkpoints and off for
// recomputable cache entries.
func BenchmarkWriteFile(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("sync=%v", sync), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, "bench.json")
			data := bytes.Repeat([]byte("x"), 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteFile(path, data, sync); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
