package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition is a minimal validity check of the text format: every
// non-comment line is `name{labels} value` with a parseable value, every
// family has HELP and TYPE before its first sample, and families are
// contiguous.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q in %q", f[3], line)
			}
			typed[f[2]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = series[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !helped[family] || !typed[family] {
			t.Fatalf("sample %q before its family's HELP/TYPE", line)
		}
		samples[series] = v
	}
	return samples
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("app_requests_total", "", "Requests served.", func() int64 { return 42 })
	r.Gauge("app_queue_depth", "", "", "Jobs queued.", func() int64 { return 7 })
	r.Gauge("app_state", Labels("state", "open"), "", "State flags.", func() int64 { return 1 })
	r.Gauge("app_state", Labels("state", "closed"), "", "State flags.", func() int64 { return 0 })

	h := r.Histogram("app_latency_seconds", "", "Latency.")
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Minute) // past the last default bound: +Inf bucket

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseExposition(t, text)

	if samples["app_requests_total"] != 42 {
		t.Errorf("counter = %v, want 42", samples["app_requests_total"])
	}
	if samples[`app_state{state="open"}`] != 1 || samples[`app_state{state="closed"}`] != 0 {
		t.Errorf("labeled gauges wrong: %v", samples)
	}
	// Histogram: cumulative buckets, +Inf equals _count, _sum in seconds.
	if got := samples[`app_latency_seconds_bucket{le="0.001"}`]; got != 1 {
		t.Errorf("le=0.001 bucket = %v, want 1", got)
	}
	if got := samples[`app_latency_seconds_bucket{le="60"}`]; got != 1 {
		t.Errorf("le=60 bucket = %v, want 1", got)
	}
	inf := samples[`app_latency_seconds_bucket{le="+Inf"}`]
	if inf != 2 || inf != samples["app_latency_seconds_count"] {
		t.Errorf("+Inf bucket = %v, count = %v; must both be 2", inf, samples["app_latency_seconds_count"])
	}
	if got := samples["app_latency_seconds_sum"]; got < 120.0004 || got > 120.0006 {
		t.Errorf("sum = %v seconds, want ~120.0005", got)
	}
	// Cumulative buckets never decrease.
	if samples[`app_latency_seconds_bucket{le="60"}`] < samples[`app_latency_seconds_bucket{le="0.001"}`] {
		t.Error("buckets are not monotone")
	}
	// One HELP/TYPE header per family even with multiple series.
	if strings.Count(text, "# TYPE app_state gauge") != 1 {
		t.Errorf("app_state family must have exactly one TYPE header:\n%s", text)
	}
}

// TestRegistryJSON pins WriteJSON: keyed metrics in registration order, a
// Text omitted while empty and absent from the exposition, exposition-only
// metrics absent from the JSON, and one counter behind both renderings.
func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("app_hits_total", "hits", "Hits.")
	state := ""
	r.Text("state", func() string { return state })
	r.Gauge("app_inflight", "", "", "In flight (exposition only).", func() int64 { return 3 })
	r.Gauge("app_depth", "", "depth", "Depth.", func() int64 { return 7 })
	r.Histogram("app_latency_seconds", "", "Latency.").Observe(time.Millisecond)

	render := func() (string, string) {
		var js, text strings.Builder
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if _, err := r.WriteTo(&text); err != nil {
			t.Fatal(err)
		}
		return js.String(), text.String()
	}
	js, text := render()
	if want := `{"hits":0,"depth":7}` + "\n"; js != want {
		t.Fatalf("WriteJSON = %q, want %q", js, want)
	}
	parseExposition(t, text)

	hits.Add(5)
	state = "open"
	js, text = render()
	if want := `{"hits":5,"state":"open","depth":7}` + "\n"; js != want {
		t.Fatalf("WriteJSON = %q, want %q", js, want)
	}
	samples := parseExposition(t, text)
	if samples["app_hits_total"] != 5 || hits.Load() != 5 {
		t.Errorf("app_hits_total = %v, Load = %d; want 5 in both", samples["app_hits_total"], hits.Load())
	}
	if samples["app_inflight"] != 3 {
		t.Errorf("app_inflight = %v, want 3", samples["app_inflight"])
	}
	if strings.Contains(text, "state") || strings.Contains(text, "open") {
		t.Errorf("a Text must not reach the exposition:\n%s", text)
	}
}

// TestLabelEscaping pins the escaping rules for label values.
func TestLabelEscaping(t *testing.T) {
	got := Label("path", "a\\b\"c\nd")
	want := `path="a\\b\"c\nd"`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
	if got := Labels("a", "1", "b", "2"); got != `a="1",b="2"` {
		t.Fatalf("Labels = %s", got)
	}
}
