package model

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"dpcpp/internal/rt"
)

// Request is one entry of a vertex's request profile: the vertex issues at
// most Count requests to Resource (N_{i,x,q}).
type Request struct {
	Resource rt.ResourceID
	Count    int
}

// Requests is a vertex's request profile, sorted by ascending Resource with
// each resource at most once; Task.Finalize rejects a profile that is not.
// An entry may carry a zero count: it is kept on the wire and means the
// same as no entry.
//
// On the wire a profile is the JSON object that encoding/json writes for a
// map[rt.ResourceID]int, byte for byte: {"q":n,...} with the keys ordered
// as strings ("10" before "2"). Decoding reads that object with map
// semantics, so a repeated key keeps its last value.
type Requests []Request

// Count returns the vertex's request count for q, 0 when it has none.
func (rs Requests) Count(q rt.ResourceID) int {
	if i, found := slices.BinarySearchFunc(rs, q, cmpResource); found {
		return rs[i].Count
	}
	return 0
}

// add adds n to the count for q, inserting an entry in resource order when
// q has none.
func (rs *Requests) add(q rt.ResourceID, n int) {
	i, found := slices.BinarySearchFunc(*rs, q, cmpResource)
	if found {
		(*rs)[i].Count += n
		return
	}
	*rs = slices.Insert(*rs, i, Request{Resource: q, Count: n})
}

func cmpResource(r Request, q rt.ResourceID) int { return cmp.Compare(r.Resource, q) }

// sorted reports whether the resources strictly ascend.
func (rs Requests) sorted() bool {
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Resource >= rs[i].Resource {
			return false
		}
	}
	return true
}

// orderErr is Finalize's error for vertex v of task t when the profile is
// not sorted, nil when it is.
func (rs Requests) orderErr(t rt.TaskID, v rt.VertexID) error {
	if !rs.sorted() {
		return fmt.Errorf("model: task %d vertex %d requests are not sorted by resource", t, v)
	}
	return nil
}

// requestsOf returns the sorted profile holding m's entries, zero counts
// included.
func requestsOf(m map[rt.ResourceID]int) Requests {
	rs := make(Requests, 0, len(m))
	for q, n := range m {
		rs = append(rs, Request{Resource: q, Count: n})
	}
	slices.SortFunc(rs, byResource)
	return rs
}

func byResource(a, b Request) int { return cmpResource(a, b.Resource) }

// with returns the profile with over's counts written over it: sorted, and
// with every zero count dropped. It sorts once, so it costs
// O((k+o) log(k+o)) for k entries and o overrides. A profile that is not
// sorted comes back as it is, for Finalize to reject rather than for with
// to sort and merge.
func (rs Requests) with(over map[rt.ResourceID]int) Requests {
	if !rs.sorted() {
		return rs
	}
	out := make(Requests, 0, len(rs)+len(over))
	for _, r := range rs {
		if n, ok := over[r.Resource]; ok {
			r.Count = n
		}
		if r.Count > 0 {
			out = append(out, r)
		}
	}
	for q, n := range over {
		if _, found := slices.BinarySearchFunc(rs, q, cmpResource); !found && n > 0 {
			out = append(out, Request{Resource: q, Count: n})
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, byResource)
	return out
}

// MarshalJSON writes the profile as encoding/json writes the equivalent
// map: null when nil, keys in string order.
func (rs Requests) MarshalJSON() ([]byte, error) {
	if rs == nil {
		return []byte("null"), nil
	}
	byKey := func(a, b Request) int { return cmpDecimal(a.Resource, b.Resource) }
	order := rs
	if !slices.IsSortedFunc(order, byKey) {
		order = slices.Clone(rs)
		slices.SortFunc(order, byKey)
	}
	b := make([]byte, 0, 2+16*len(rs))
	b = append(b, '{')
	for i, r := range order {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(r.Resource), 10)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, int64(r.Count), 10)
	}
	return append(b, '}'), nil
}

// cmpDecimal orders resource IDs by their decimal strings, as encoding/json
// orders a map's keys: "10" before "2". Non-negative IDs of one length
// order as numbers.
func cmpDecimal(a, b rt.ResourceID) int {
	if a >= 0 && b >= 0 && decLen(int64(a)) == decLen(int64(b)) {
		return cmp.Compare(a, b)
	}
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

// UnmarshalJSON reads the object form with exactly the semantics of
// decoding into a map[rt.ResourceID]int: the same accepted keys and
// errors, the last value of a repeated key, null clearing the profile, and
// a second object merging into the first.
func (rs *Requests) UnmarshalJSON(b []byte) error {
	var m map[rt.ResourceID]int
	if *rs != nil {
		m = make(map[rt.ResourceID]int, len(*rs))
		for _, r := range *rs {
			m[r.Resource] = r.Count
		}
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*rs = nil
		return nil
	}
	*rs = requestsOf(m)
	return nil
}
