// Package store persists content-addressed analysis results on disk, so a
// restarted service keeps its cache warm: the in-memory LRU of
// internal/server writes through to a Store, and repeated sweeps across
// process lifetimes pay only for points they have never analyzed.
//
// The store is deliberately dumb: a flat mapping from an opaque key string
// to a byte value, one file per entry. Because every key already is a
// content address (the taskset's canonical SHA-256 hash joined with the
// method and every verdict-changing option), entries never need
// invalidation — a key's value is immutable, so crash-safety reduces to
// atomic single-file writes (temp file + rename) and concurrent writers of
// the same key are idempotent.
//
// Two robustness layers sit alongside the store proper. Hooks let tests
// inject filesystem faults — I/O errors, torn writes, crash points —
// without a custom filesystem, which is what the server's chaos suite is
// built on. Breaker is a circuit breaker callers wrap around store access
// so a failing disk degrades to recomputation instead of charging every
// request a doomed syscall.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// ErrTornWrite, returned by a Hooks.BeforeRename injection, simulates a
// crash or power loss between writing the temp file and renaming it over
// the target: the temp file stays on disk, the rename never happens, and —
// exactly like a real machine that lost power after the write was
// acknowledged — the writer observes success.
var ErrTornWrite = errors.New("store: injected torn write (rename skipped)")

// Hooks intercept the store's filesystem operations for fault injection.
// Each hook receives the target path and may return an error to inject a
// failure (EIO, ENOSPC, permission denied, ...) or block to widen race
// windows. Hooks exist for tests — the chaos suite schedules faults
// through them — and are never set in production.
type Hooks struct {
	// BeforeRead fires before reading a value or checkpoint file; a
	// non-nil return is surfaced as the read's error.
	BeforeRead func(path string) error
	// BeforeWrite fires before creating the temp file of an atomic write;
	// a non-nil return fails the write with that error.
	BeforeWrite func(path string) error
	// BeforeRename fires after the temp file is durable but before the
	// rename. Returning ErrTornWrite skips the rename, leaves the temp
	// file behind and reports success (a simulated crash after
	// acknowledgment); any other non-nil error fails the write cleanly.
	BeforeRename func(path string) error
}

// Store is an on-disk content-addressed byte store rooted at one directory.
// All methods are safe for concurrent use; Get never observes a partial
// Put.
type Store struct {
	dir   string
	hooks atomic.Pointer[Hooks]
}

// Open creates (if needed) the store rooted at dir and probes it with a
// throwaway write, so a directory that is unwritable, read-only, or
// occupied by a regular file fails loudly at startup instead of turning
// every later Put into a silent metrics blip.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: cannot create %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe*")
	if err != nil {
		return nil, fmt.Errorf("store: directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	_, werr := probe.Write([]byte("schedd store probe"))
	cerr := probe.Close()
	os.Remove(name)
	if werr != nil || cerr != nil {
		return nil, fmt.Errorf("store: probe write to %s failed: %w", dir, errors.Join(werr, cerr))
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetHooks installs (or, with nil, removes) fault-injection hooks. Safe to
// call concurrently with store operations; in-flight operations may still
// use the previous hooks.
func (s *Store) SetHooks(h *Hooks) { s.hooks.Store(h) }

// path maps a key to its file: keys are arbitrary strings (cache keys
// contain '|'), so the filename is the hex SHA-256 of the key, sharded by
// its first two characters to keep directories small.
func (s *Store) path(key string) string {
	h := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(h[:])
	return filepath.Join(s.dir, name[:2], name[2:])
}

// Get returns the stored value of key. The boolean reports presence; the
// error reports anything other than a clean miss (an unreadable store is
// not a miss, so callers can surface degradation in metrics).
func (s *Store) Get(key string) ([]byte, bool, error) {
	data, err := s.ReadFile(s.path(key))
	switch {
	case err == nil:
		return data, true, nil
	case os.IsNotExist(err):
		return nil, false, nil
	default:
		return nil, false, err
	}
}

// ReadFile reads one file under the store's fault-injection hooks; the
// sweep-job registry loads its checkpoints through it so injected read
// faults reach the startup path too.
func (s *Store) ReadFile(path string) ([]byte, error) {
	if h := s.hooks.Load(); h != nil && h.BeforeRead != nil {
		if err := h.BeforeRead(path); err != nil {
			return nil, err
		}
	}
	return os.ReadFile(path)
}

// Put stores the value under key, atomically: a reader either sees the
// whole value or none. Re-putting an existing key is allowed and (keys
// being content addresses) idempotent. Cache entries are recomputable, so
// Put does not fsync — a crash may lose the entry, never corrupt it; state
// that must survive power loss (sweep checkpoints) goes through WriteFile
// with sync set.
func (s *Store) Put(key string, val []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return s.WriteFile(path, val, false)
}

// WriteFile writes data to path through a same-directory temp file and
// rename (see writeFileAtomic), under the store's fault-injection hooks.
// With sync set, the temp file is fsynced before the rename and the parent
// directory after it, so the rename itself survives power loss — without
// it, an "atomic" write can be acknowledged and then vanish entirely when
// the directory entry never reaches the platter. Sync costs two fsyncs per
// write (see BenchmarkWriteFile); it is on for sweep-job checkpoints,
// whose loss discards progress, and off for cache entries, which are
// recomputable.
func (s *Store) WriteFile(path string, data []byte, sync bool) error {
	return writeFileAtomic(path, data, sync, s.hooks.Load())
}

// Entries counts the stored values; it walks the store's shard
// directories, so it is for tests and operator tooling, not hot paths.
// Only content-addressed entries are counted: foreign files sharing the
// root (e.g. the analysis server's sweep-job checkpoints under jobs/) and
// temp files orphaned by a crash mid-Put are excluded.
func (s *Store) Entries() (int, error) {
	tops, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, top := range tops {
		if !top.IsDir() || !isHexShard(top.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, top.Name()))
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if !f.IsDir() && !strings.Contains(f.Name(), ".tmp") {
				n++
			}
		}
	}
	return n, nil
}

// isHexShard reports whether name is a two-character lowercase-hex shard
// directory of the store layout.
func isHexShard(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeFileAtomic writes data to path through a same-directory temp file
// and rename, so concurrent readers never observe a partial file and a
// crash leaves either the old content or the new, never a torn write.
func writeFileAtomic(path string, data []byte, sync bool, h *Hooks) error {
	dir, base := filepath.Split(path)
	if h != nil && h.BeforeWrite != nil {
		if err := h.BeforeWrite(path); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if h != nil && h.BeforeRename != nil {
		if err := h.BeforeRename(path); err != nil {
			if errors.Is(err, ErrTornWrite) {
				return nil // simulated crash: temp written, rename lost
			}
			os.Remove(tmpName)
			return err
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename inside it survives
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
