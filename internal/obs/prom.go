package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
)

// Registry is the one declaration of a service's metrics. Each metric is
// registered once at startup and rendered two ways at scrape time: WriteTo
// emits Prometheus text exposition format (version 0.0.4), hand-rolled so
// the repository stays dependency-free, and WriteJSON emits a flat JSON
// object of every metric declared with a JSON key. Both renderings read the
// same counter, read function or histogram, so they cannot disagree.
// Registration is not safe for concurrent use with rendering — register
// everything before serving.
//
// Families may carry multiple label sets (e.g. one request-latency series
// per endpoint): register the same name repeatedly with distinct labels,
// and WriteTo emits one # HELP/# TYPE header per family followed by every
// series, grouped regardless of registration order.
type Registry struct {
	metrics []metric
}

type metric struct {
	name   string // Prometheus family; "" for a JSON-only Text
	key    string // JSON key; "" for an exposition-only metric
	help   string
	typ    string // "counter" | "gauge" | "histogram"; "" for a Text
	labels string // preformatted `k="v",k2="v2"` or ""
	val    func() int64
	text   func() string
	hist   *Histogram
}

// Counter is a registry-owned monotone counter. Add and Load are single
// atomic operations and never allocate, so counters may sit on hot paths.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter declares a counter owned by the registry and returns it. A
// metric declared with key "" appears in the Prometheus text only.
func (r *Registry) Counter(name, key, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, key, help, c.Load)
	return c
}

// CounterFunc declares a counter kept elsewhere, read through fn.
func (r *Registry) CounterFunc(name, key, help string, fn func() int64) {
	r.metrics = append(r.metrics, metric{name: name, key: key, help: help, typ: "counter", val: fn})
}

// Gauge declares a point-in-time value read through fn. labels is a
// preformatted label set (see Labels) or "".
func (r *Registry) Gauge(name, labels, key, help string, fn func() int64) {
	r.metrics = append(r.metrics, metric{name: name, key: key, help: help, typ: "gauge", labels: labels, val: fn})
}

// Text declares a JSON-only string value read through fn; WriteJSON omits
// it while fn returns "".
func (r *Registry) Text(key string, fn func() string) {
	r.metrics = append(r.metrics, metric{key: key, text: fn})
}

// Histogram declares a latency histogram over DefaultLatencyBounds and
// returns it. Histograms appear in the Prometheus text only, in seconds
// per Prometheus convention.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	h := NewHistogram(DefaultLatencyBounds())
	r.metrics = append(r.metrics, metric{name: name, help: help, typ: "histogram", labels: labels, hist: h})
	return h
}

// WriteTo renders the registry in Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	// Group series into families by name, preserving first-registration
	// order for stable scrapes.
	order := make([]string, 0, len(r.metrics))
	families := make(map[string][]*metric, len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		if m.name == "" {
			continue
		}
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(fam[0].help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, fam[0].typ)
		for _, m := range fam {
			if m.hist != nil {
				writeHistogram(&b, name, m.labels, m.hist.Snapshot())
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", name, braced(m.labels), m.val())
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteJSON renders every metric declared with a JSON key as one flat,
// newline-terminated JSON object, keys in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	b := []byte{'{'}
	for _, m := range r.metrics {
		if m.key == "" {
			continue
		}
		var v []byte
		if m.text != nil {
			s := m.text()
			if s == "" {
				continue
			}
			v, _ = json.Marshal(s) // marshaling a string cannot fail
		} else {
			v = strconv.AppendInt(nil, m.val(), 10)
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		k, _ := json.Marshal(m.key)
		b = append(b, k...)
		b = append(b, ':')
		b = append(b, v...)
	}
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

func writeHistogram(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			braced(joinLabels(labels, `le="`+formatFloat(float64(bound)/1e9)+`"`)), s.Counts[i])
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(labels), formatFloat(float64(s.SumNS)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(labels), s.Count)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Label builds one escaped `k="v"` pair for a registration's label set.
func Label(k, v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return k + `="` + v + `"`
}

// Labels builds an escaped label set from alternating key, value
// arguments: Labels("endpoint", "grid") -> `endpoint="grid"`. A trailing
// odd key is ignored.
func Labels(kv ...string) string {
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, Label(kv[i], kv[i+1]))
	}
	return strings.Join(pairs, ",")
}
