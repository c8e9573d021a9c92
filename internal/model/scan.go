package model

import (
	"bytes"
	"slices"

	"dpcpp/internal/rt"
)

// Scanner is a reflection-free reader for the JSON that encoding/json,
// cmd/taskgen and the benchmark write for tasksets and the request
// documents that embed them. It accepts only that common shape:
//
//   - object keys matched exactly (case-sensitive), each at most once, in
//     any order;
//   - JSON whitespace between any two tokens;
//   - integers of at most 18 digits, with an optional '-' and no leading
//     zero;
//   - strings of printable ASCII without escapes;
//   - true and false.
//
// Anything else declines: null, escapes, control or non-ASCII bytes,
// unknown, case-folded or duplicate keys, '+', leading zeros, fractions,
// exponents, syntax errors and trailing bytes. Once the scanner declines,
// every later call returns a zero value and End reports false; the caller
// then decodes the same bytes with encoding/json, which stays the only
// judge of unusual input. When the scanner accepts a document, the value it
// built is exactly what strict encoding/json (DisallowUnknownFields and
// nothing but whitespace after the value) decodes from it, down to empty
// but non-nil slices, request profiles included, and their sorted order.
// FuzzTasksetJSON checks that with reflect.DeepEqual.
//
// The zero Scanner is ready for Reset.
type Scanner struct {
	b   []byte
	i   int
	bad bool

	// Array elements are staged here, then copied once into an exactly
	// sized slice. No array nests inside one of its own element type, so
	// one buffer per type suffices; a reused Scanner keeps them grown, and
	// clears those holding pointers once copied, so it retains no decoded
	// value.
	tasks []Task
	verts []Vertex
	reqs  Requests // every request profile of the vertex list being read
	edges []Edge
	times []rt.Time
	strs  []string
}

// The JSON names of the model types, as in their struct tags (a test pins
// the two together). Key returns an index into these lists.
var (
	tasksetKeys = []string{"tasks", "num_resources", "num_procs"}
	taskKeys    = []string{"id", "name", "period", "deadline", "priority", "vertices", "edges", "cslen"}
	vertexKeys  = []string{"id", "wcet", "requests"}
	edgeKeys    = []string{"from", "to"}
)

// Reset starts scanning b; Reset(nil) drops the reference to the last
// input.
func (s *Scanner) Reset(b []byte) {
	s.b, s.i, s.bad = b, 0, false
}

// End reports whether the scanner accepted its whole input: it has not
// declined, and only whitespace follows the last value read.
func (s *Scanner) End() bool {
	s.peek()
	return !s.bad && s.i == len(s.b)
}

func (s *Scanner) decline() {
	s.bad = true
	s.i = len(s.b)
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// input (a declined scanner is always at the end).
func (s *Scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// next moves to the next element of an array or object: the first call
// reads the opening bracket, later calls the separating comma. It returns
// false at the closing bracket and when the scanner declines.
func (s *Scanner) next(first bool, open, close byte) bool {
	c := s.peek()
	if first {
		if c != open {
			s.decline()
			return false
		}
		s.i++
		if s.peek() == close {
			s.i++
			return false
		}
		return true
	}
	switch c {
	case ',':
		s.i++
		return true
	case close:
		s.i++
		return false
	}
	s.decline()
	return false
}

// elem moves to the next element of an array, given the number of
// elements read so far (0 reads the opening bracket). It returns false at
// the closing bracket and when the scanner declines.
func (s *Scanner) elem(n int) bool { return s.next(n == 0, '[', ']') }

// Key reads the next key of an object whose keys are names, and its
// colon, and returns the key's index in names; the caller then reads the
// value. It returns -1 at the closing brace and when the scanner declines.
// seen records the keys read so far and must be zero for a new object, so
// the first call also reads the opening brace. A key not in names, or one
// already seen, declines.
func (s *Scanner) Key(names []string, seen *uint64) int {
	if !s.next(*seen == 0, '{', '}') {
		return -1
	}
	k := s.quoted()
	if s.peek() != ':' {
		s.decline()
		return -1
	}
	s.i++
	for i, name := range names {
		if string(k) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	s.decline()
	return -1
}

// quoted reads a string of printable ASCII without escapes and returns its
// contents, which alias the input.
func (s *Scanner) quoted() []byte {
	if s.peek() != '"' {
		s.decline()
		return nil
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.decline()
			return nil
		}
	}
	s.decline()
	return nil
}

// Str reads a string.
func (s *Scanner) Str() string { return string(s.quoted()) }

// Strings reads an array of strings.
func (s *Scanner) Strings() []string {
	s.strs = s.strs[:0]
	for s.elem(len(s.strs)) {
		s.strs = append(s.strs, s.Str())
	}
	out := exact(s.strs)
	clear(s.strs)
	return out
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch s.peek() {
	case 't':
		if bytes.HasPrefix(s.b[s.i:], []byte("true")) {
			s.i += len("true")
			return true
		}
	case 'f':
		if bytes.HasPrefix(s.b[s.i:], []byte("false")) {
			s.i += len("false")
			return false
		}
	}
	s.decline()
	return false
}

// Int64 reads an integer.
func (s *Scanner) Int64() int64 {
	s.peek()
	v, n := leadingInt(s.b[s.i:])
	if n == 0 {
		s.decline()
		return 0
	}
	s.i += n
	return v
}

// Int reads an integer that fits in an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.decline()
		return 0
	}
	return int(v)
}

// leadingInt parses the integer at the start of b and returns it with the
// number of bytes it spans, or n == 0 when b does not start with an
// integer of the accepted form. The byte after it is left to the caller:
// a '.', 'e' or digit there is a syntax error for the next read.
func leadingInt(b []byte) (v int64, n int) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	for ; n < len(b) && b[n]-'0' < 10; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if d := n - start; d == 0 || d > 18 || d > 1 && b[start] == '0' {
		return 0, 0
	}
	if neg {
		v = -v
	}
	return v, n
}

// exact copies the staged elements into a slice of their length: non-nil
// even when empty, as encoding/json decodes [].
func exact[T any](staged []T) []T {
	return append(make([]T, 0, len(staged)), staged...)
}

// pointers copies the staged elements into one exactly sized backing
// array and returns a pointer to each.
func pointers[T any](staged []T) []*T {
	slab := exact(staged)
	out := make([]*T, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// Taskset reads a Taskset object, unfinalized.
func (s *Scanner) Taskset() *Taskset {
	ts := new(Taskset)
	var seen uint64
	for {
		switch s.Key(tasksetKeys, &seen) {
		case 0:
			ts.Tasks = s.taskList()
		case 1:
			ts.NumResources = s.Int()
		case 2:
			ts.NumProcs = s.Int()
		default:
			return ts
		}
	}
}

// taskList reads an array of Task objects.
func (s *Scanner) taskList() []*Task {
	s.tasks = s.tasks[:0]
	for s.elem(len(s.tasks)) {
		s.tasks = append(s.tasks, Task{})
		s.task(&s.tasks[len(s.tasks)-1])
	}
	out := pointers(s.tasks)
	clear(s.tasks)
	return out
}

func (s *Scanner) task(t *Task) {
	var seen uint64
	for {
		switch s.Key(taskKeys, &seen) {
		case 0:
			t.ID = rt.TaskID(s.Int())
		case 1:
			t.Name = s.Str()
		case 2:
			t.Period = s.Int64()
		case 3:
			t.Deadline = s.Int64()
		case 4:
			t.Priority = rt.Priority(s.Int())
		case 5:
			t.Vertices = s.vertexList()
		case 6:
			t.Edges = s.edgeList()
		case 7:
			t.CSLen = s.timeList()
		default:
			return
		}
	}
}

// vertexList reads an array of Vertex objects. Their request profiles are
// staged in vertex order and then share one exactly sized backing array.
func (s *Scanner) vertexList() []*Vertex {
	s.verts = s.verts[:0]
	if s.reqs == nil {
		s.reqs = make(Requests, 0, 16) // so that {} stages an empty, non-nil profile
	}
	s.reqs = s.reqs[:0]
	for s.elem(len(s.verts)) {
		s.verts = append(s.verts, Vertex{})
		s.vertex(&s.verts[len(s.verts)-1])
	}
	out := pointers(s.verts)
	reqs := exact(s.reqs)
	for _, v := range out {
		if v.Requests != nil {
			n := len(v.Requests)
			v.Requests, reqs = reqs[:n:n], reqs[n:]
		}
	}
	clear(s.verts)
	return out
}

func (s *Scanner) vertex(v *Vertex) {
	var seen uint64
	for {
		switch s.Key(vertexKeys, &seen) {
		case 0:
			v.ID = rt.VertexID(s.Int())
		case 1:
			v.WCET = s.Int64()
		case 2:
			v.Requests = s.requests()
		default:
			return
		}
	}
}

// requests reads a Vertex.Requests object, whose keys are resource IDs,
// onto the end of the staged profiles in key order, then sorts the profile
// by resource once, so a profile of k keys costs O(k log k) whatever their
// order. A repeated key declines: map semantics keep its last value, which
// the encoding/json path gives. The result aliases the staging buffer
// until vertexList moves it.
func (s *Scanner) requests() Requests {
	start := len(s.reqs)
	for first := true; s.next(first, '{', '}'); first = false {
		k := s.quoted()
		q, n := leadingInt(k)
		if n == 0 || n != len(k) || int64(int(q)) != q || s.peek() != ':' {
			s.decline()
			return nil
		}
		s.i++
		s.reqs = append(s.reqs, Request{Resource: rt.ResourceID(q), Count: s.Int()})
	}
	rs := Requests(s.reqs[start:len(s.reqs):len(s.reqs)])
	slices.SortFunc(rs, func(a, b Request) int { return cmpResource(a, b.Resource) })
	if !rs.sorted() {
		s.decline()
		return nil
	}
	return rs
}

func (s *Scanner) edgeList() []Edge {
	s.edges = s.edges[:0]
	for s.elem(len(s.edges)) {
		s.edges = append(s.edges, s.edge())
	}
	return exact(s.edges)
}

func (s *Scanner) edge() (e Edge) {
	var seen uint64
	for {
		switch s.Key(edgeKeys, &seen) {
		case 0:
			e.From = rt.VertexID(s.Int())
		case 1:
			e.To = rt.VertexID(s.Int())
		default:
			return e
		}
	}
}

func (s *Scanner) timeList() []rt.Time {
	s.times = s.times[:0]
	for s.elem(len(s.times)) {
		s.times = append(s.times, s.Int64())
	}
	return exact(s.times)
}
