package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// strictDecode is the scanner's oracle: encoding/json with unknown fields
// rejected and nothing but whitespace allowed after the document, the
// request-boundary rules of the server's decoder.
func strictDecode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// scanTaskset runs the scanner over a whole taskset document and reports
// whether it accepted.
func scanTaskset(data []byte) (*Taskset, bool) {
	var s Scanner
	s.Reset(data)
	ts := s.Taskset()
	return ts, s.End()
}

// fixtureTasksets returns the Fig. 2(a) tasksets of the schedd testdata:
// the delta base and the taskset of the golden analyze request.
func fixtureTasksets(t testing.TB) [][]byte {
	t.Helper()
	base, err := os.ReadFile("../../cmd/schedd/testdata/delta_base_taskset.json")
	if err != nil {
		t.Fatal(err)
	}
	req, err := os.ReadFile("../../cmd/schedd/testdata/fig2a_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Taskset json.RawMessage }
	if err := json.Unmarshal(req, &env); err != nil {
		t.Fatal(err)
	}
	return [][]byte{base, env.Taskset}
}

const scanSmall = `{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"0":2}},{"id":1,"wcet":50}],"edges":[{"from":0,"to":1}],"cslen":[5]}],"num_resources":1,"num_procs":2}`

// scanAccepted are documents in the scanner's shape; scanDeclined are
// documents it must hand to encoding/json, whether or not that accepts them.
var (
	scanAccepted = map[string]string{
		"small":          scanSmall,
		"keys reordered": `{"num_procs":2,"num_resources":1,"tasks":[{"cslen":[5],"edges":[{"to":1,"from":0}],"vertices":[{"requests":{"0":2},"wcet":100,"id":0},{"wcet":50,"id":1}],"deadline":1000,"period":1000,"id":0,"name":"q1"}]}`,
		"empty arrays":   `{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{}}],"edges":[],"cslen":[]}],"num_resources":0,"num_procs":2}`,
		"no tasks":       `{"tasks":[],"num_resources":0,"num_procs":2}`,
		"empty object":   `{}`,
		"minus zero":     `{"tasks":[{"id":-0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"-0":1}}]}],"num_resources":1,"num_procs":2}`,
		"negative":       `{"tasks":[{"id":-3,"period":-1,"deadline":1000,"vertices":[{"id":0,"wcet":100}]}],"num_resources":-1,"num_procs":2}`,
		"18 digits":      `{"tasks":[{"id":0,"period":999999999999999999,"deadline":1000,"vertices":[{"id":0,"wcet":100}]}],"num_resources":0,"num_procs":2}`,
		"whitespace":     " \r\n\t{ \"tasks\" :\n[ { \"id\" : 0 ,\t\"period\":1000,\"deadline\":1000,\"vertices\":[ ] } ] , \"num_procs\" : 2 }\n\t ",
	}
	scanDeclined = map[string]string{
		"case-folded key":   strings.Replace(scanSmall, `"wcet":100`, `"WCET":100`, 1),
		"duplicate key":     strings.Replace(scanSmall, `"id":0,"period"`, `"id":0,"id":1,"period"`, 1),
		"duplicate request": strings.Replace(scanSmall, `{"0":2}`, `{"0":2,"0":3}`, 1),
		"split duplicate":   strings.Replace(scanSmall, `{"0":2}`, `{"0":2,"1":1,"-0":3}`, 1),
		"unknown key":       strings.Replace(scanSmall, `"num_procs"`, `"bogus":1,"num_procs"`, 1),
		"plus request key":  strings.Replace(scanSmall, `{"0":2}`, `{"+0":2}`, 1),
		"padded request":    strings.Replace(scanSmall, `{"0":2}`, `{" 0":2}`, 1),
		"leading zero":      strings.Replace(scanSmall, `"wcet":50`, `"wcet":050`, 1),
		"plus":              strings.Replace(scanSmall, `"wcet":50`, `"wcet":+50`, 1),
		"exponent":          strings.Replace(scanSmall, `"wcet":50`, `"wcet":1e3`, 1),
		"fraction":          strings.Replace(scanSmall, `"wcet":50`, `"wcet":50.0`, 1),
		"19 digits":         strings.Replace(scanSmall, `"period":1000`, `"period":1000000000000000000`, 1),
		"escaped name":      strings.Replace(scanSmall, `"id":0,"period"`, `"id":0,"name":"a\u0062","period"`, 1),
		"non-ASCII name":    strings.Replace(scanSmall, `"id":0,"period"`, `"id":0,"name":"é","period"`, 1),
		"null field":        strings.Replace(scanSmall, `"edges":[{"from":0,"to":1}]`, `"edges":null`, 1),
		"null task":         `{"tasks":[null],"num_resources":0,"num_procs":2}`,
		"null vertex":       strings.Replace(scanSmall, `{"id":1,"wcet":50}`, `null`, 1),
		"string number":     strings.Replace(scanSmall, `"wcet":50`, `"wcet":"50"`, 1),
		"trailing comma":    strings.Replace(scanSmall, `"cslen":[5]`, `"cslen":[5,]`, 1),
		"trailing ]":        scanSmall + `]`,
		"trailing }x":       scanSmall + `}x`,
		"second document":   scanSmall + `{}`,
		"truncated":         scanSmall[:len(scanSmall)-1],
		"empty":             ``,
		"top-level array":   `[]`,
	}
)

// TestScannerKeysMatchStructTags pins the scanner's key lists to the JSON
// names in the model's struct tags, in field order.
func TestScannerKeysMatchStructTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{Taskset{}, tasksetKeys},
		{Task{}, taskKeys},
		{Vertex{}, vertexKeys},
		{Edge{}, edgeKeys},
	} {
		if got := jsonNames(reflect.TypeOf(tc.v)); !reflect.DeepEqual(got, tc.keys) {
			t.Errorf("%T: struct tags name %q, scanner keys are %q", tc.v, got, tc.keys)
		}
	}
}

// jsonNames lists the JSON names of a struct type's exported fields.
func jsonNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			names = append(names, strings.Split(f.Tag.Get("json"), ",")[0])
		}
	}
	return names
}

// TestScannerMatchesEncodingJSON: every document in the scanner's shape,
// fixtures and their indented copies included, is accepted and decodes to
// exactly the value strict encoding/json builds; every other document is
// declined.
func TestScannerMatchesEncodingJSON(t *testing.T) {
	accepted := map[string][]byte{}
	for name, doc := range scanAccepted {
		accepted[name] = []byte(doc)
	}
	for i, doc := range fixtureTasksets(t) {
		var indented bytes.Buffer
		if err := json.Indent(&indented, doc, "\r", "\t "); err != nil {
			t.Fatal(err)
		}
		accepted[string(rune('A'+i))+" fixture"] = doc
		accepted[string(rune('A'+i))+" fixture indented"] = indented.Bytes()
	}
	for name, doc := range accepted {
		got, ok := scanTaskset(doc)
		if !ok {
			t.Errorf("%s: declined", name)
			continue
		}
		var want Taskset
		if err := strictDecode(doc, &want); err != nil {
			t.Errorf("%s: encoding/json rejects it: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: scanned %+v, encoding/json decodes %+v", name, got, &want)
		}
	}
	for name, doc := range scanDeclined {
		if _, ok := scanTaskset([]byte(doc)); ok {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}

// profileDoc returns a one-vertex taskset whose request profile has keys
// 0..k-1, in descending order when desc is set.
func profileDoc(k int, desc bool) []byte {
	b := []byte(`{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{`)
	for i := range k {
		q := i
		if desc {
			q = k - 1 - i
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(q), 10)
		b = append(b, `":1`...)
	}
	return append(b, `}}]}],"num_resources":`+strconv.Itoa(k)+`,"num_procs":2}`...)
}

// largeProfileBudget bounds one scan or patch of a 1e5-entry request
// profile. A linear or k log k pass takes milliseconds, tens under the race
// detector; placing each entry in resource order as it arrives makes
// descending resources, which always land in front, cost O(k^2) moved
// entries, over ten seconds on a current core.
const largeProfileBudget = 4 * time.Second

// withinBudget reports whether one of three runs of f finished inside
// budget, so a single stall on a loaded machine does not fail the test.
func withinBudget(budget time.Duration, f func()) (time.Duration, bool) {
	var d time.Duration
	for range 3 {
		start := time.Now()
		f()
		if d = time.Since(start); d <= budget {
			return d, true
		}
	}
	return d, false
}

// TestScannerLargeProfileNotQuadratic: a request profile costs the scanner
// O(k log k) whatever its key order.
func TestScannerLargeProfileNotQuadratic(t *testing.T) {
	const k = 100_000
	doc := profileDoc(k, true)
	var rs Requests
	d, ok := withinBudget(largeProfileBudget, func() {
		ts, accepted := scanTaskset(doc)
		if !accepted {
			t.Fatal("scanner declined a large profile")
		}
		rs = ts.Tasks[0].Vertices[0].Requests
	})
	if !ok {
		t.Fatalf("descending profile of %d keys took %v to scan, over the %v budget", k, d, largeProfileBudget)
	}
	if len(rs) != k || !rs.sorted() || rs[0].Resource != 0 {
		t.Fatalf("profile of %d entries, sorted=%v, want %d sorted from 0", len(rs), rs.sorted(), k)
	}
}
