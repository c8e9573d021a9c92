package model

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"dpcpp/internal/rt"
)

// Hash is the content address of a finalized taskset: a SHA-256 digest of
// its canonical serialization. Two tasksets share a Hash exactly when every
// analysis in the repository treats them identically, so the hash is a safe
// cache key for schedulability results.
type Hash [sha256.Size]byte

// String returns the lowercase-hex form used in cache keys and API
// responses.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Hash returns the taskset's content address. The taskset must be
// finalized: canonicalization depends on assigned priorities and the
// derived request profile.
//
// The invariant the fuzzer pins (FuzzTasksetJSON): for any valid taskset,
// DecodeTaskset(EncodeTaskset(ts)).Hash() == ts.Hash().
func (ts *Taskset) Hash() Hash {
	return sha256.Sum256(ts.AppendCanonical(nil))
}

// AppendCanonical appends the canonical serialization of the taskset to b
// and returns the extended slice. The form is deterministic and normalized:
//
//   - tasks are ordered by ID (Taskset.Finalize sorts them, so their
//     order in a document is irrelevant),
//   - vertices appear in index order (Finalize guarantees ID == index),
//   - per-vertex requests are sorted by resource ID with zero counts
//     dropped,
//   - edges are sorted by (from, to) and de-duplicated (a repeated edge is
//     the same precedence constraint),
//   - critical-section lengths appear only for resources the task actually
//     requests (an L_{i,q} with N_{i,q} = 0 never reaches any analysis or
//     the simulator), and
//   - the Name field is omitted (it is documentation, not semantics).
//
// Everything an analysis can observe — processor and resource counts,
// periods, deadlines, priorities, DAG structure, WCETs, request profiles
// and CS lengths — is included, so distinct hashes imply potentially
// distinct verdicts and equal hashes imply equal verdicts.
func (ts *Taskset) AppendCanonical(b []byte) []byte {
	ts.mustFinal()
	b = append(b, "ts/v1|m="...)
	b = strconv.AppendInt(b, int64(ts.NumProcs), 10)
	b = append(b, "|nr="...)
	b = strconv.AppendInt(b, int64(ts.NumResources), 10)
	b = append(b, '\n')

	for _, t := range ts.Tasks { // Finalize ordered them by ID
		b = t.appendCanonical(b)
	}
	return b
}

func (t *Task) appendCanonical(b []byte) []byte {
	b = append(b, "task|"...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, t.Period, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, t.Deadline, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(t.Priority), 10)
	b = append(b, '\n')
	if t.canon != nil {
		// Finalize froze the structural body; reusing it makes hashing a
		// patched taskset proportional to the number of *rebuilt* tasks,
		// since ApplyPatch shares untouched Task pointers with the base.
		return append(b, t.canon...)
	}
	return t.appendCanonBody(b)
}

// appendCanonBody appends the structural part of the canonical form: the
// vertex, edge and critical-section lines. It is priority-independent, so
// Task.Finalize can cache it before the owning taskset assigns priorities.
// The request profiles are sorted and the adjacency lists them sorted and
// repeat-free, so the body is one walk over each.
func (t *Task) appendCanonBody(b []byte) []byte {
	for _, v := range t.Vertices {
		b = append(b, 'v')
		b = append(b, '|')
		b = strconv.AppendInt(b, v.WCET, 10)
		for _, r := range v.Requests {
			if r.Count > 0 {
				b = append(b, '|')
				b = strconv.AppendInt(b, int64(r.Resource), 10)
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(r.Count), 10)
			}
		}
		b = append(b, '\n')
	}

	for x := range t.Vertices {
		for _, y := range t.adj.Succ(rt.VertexID(x)) {
			b = append(b, 'e')
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(x), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(y), 10)
			b = append(b, '\n')
		}
	}

	for q, n := range t.nReq {
		if n > 0 {
			b = append(b, "cs|"...)
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, t.CSLen[q], 10)
			b = append(b, '\n')
		}
	}
	return b
}

// canonBodyLen returns the length of appendCanonBody's output, so the body
// is built in one exactly sized allocation.
func (t *Task) canonBodyLen() int {
	n := 0
	for _, v := range t.Vertices {
		n += len("v|\n") + decLen(v.WCET)
		for _, r := range v.Requests {
			if r.Count > 0 {
				n += len("|:") + decLen(int64(r.Resource)) + decLen(int64(r.Count))
			}
		}
	}
	for x := range t.Vertices {
		for _, y := range t.adj.Succ(rt.VertexID(x)) {
			n += len("e||\n") + decLen(int64(x)) + decLen(int64(y))
		}
	}
	for q, c := range t.nReq {
		if c > 0 {
			n += len("cs|:\n") + decLen(int64(q)) + decLen(t.CSLen[q])
		}
	}
	return n
}

// decLen returns the length of v in decimal, sign included.
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
