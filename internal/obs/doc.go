// Package obs is the dependency-free observability layer under the
// service: structured logging helpers (log/slog), lock-free fixed-bucket
// latency histograms, a metric registry, and bounded-ring request tracing.
// The Registry is the one declaration of every service metric: each
// counter, gauge or histogram is registered once, with its HELP text and
// JSON key, and rendered both as Prometheus text (WriteTo) and as a flat
// JSON object (WriteJSON), so the two endpoints cannot drift apart. Every later subsystem — the distributed
// sweep fabric, delta analysis, optimizer jobs — reports through this
// package, so it depends on nothing but the standard library and imposes
// no allocation cost on the paths it instruments.
//
// # Zero-allocation instrumentation
//
// The repository's hottest invariant (PR 7) is that a warm EN/EP analysis
// round allocates nothing, gated by TestWCRTsZeroAllocEN/EP via
// testing.AllocsPerRun. Instrumentation must not break that gate, which
// dictates the design of every recording path here:
//
//   - Histogram buckets are preallocated atomic counters behind fixed
//     upper bounds. Observe is a linear scan over the bounds slice plus
//     three atomic adds and a CAS loop for the EWMA — no map lookups, no
//     interface boxing of values, no append, no time formatting. The
//     AllocsPerRun gate in histogram_test.go pins Observe at 0 allocs.
//   - Stage hooks on the analyzer's Scratch (internal/analysis) call
//     through a narrow interface whose arguments are a uint8 stage index
//     and a time.Duration — both word-sized, neither boxed. With no
//     recorder installed the hooks cost two nil checks.
//   - Counter.Add is one atomic add. Rendering (Registry.WriteTo and
//     WriteJSON) and trace snapshots do allocate, but they run on
//     scrape/debug requests, never on the recorded path.
//   - Traces preallocate their span storage; recording a span within that
//     capacity is append-into-capacity under a mutex. Trace recording
//     rides the request path (which allocates anyway, for JSON), not the
//     analysis path.
//
// # Consistency of exposed histograms
//
// A scrape races with concurrent Observe calls. WriteTo therefore derives
// _count from the same per-bucket atomic reads that produce the _bucket
// series, so the exposed cumulative buckets always sum exactly to _count;
// _sum is read separately and may be ahead by in-flight observations,
// which Prometheus semantics tolerate (both are monotone counters).
package obs
