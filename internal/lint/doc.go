// Package lint: invariant catalogue and annotation grammar.
//
// schedlint exists because three of this repository's load-bearing
// properties are invisible to the compiler and expensive to catch at
// runtime:
//
//   - Byte-determinism. Content-addressed caching (Taskset.Hash), golden
//     fixtures, and distributed sweeps all assume identical inputs
//     produce identical bytes. Go randomizes map iteration order per
//     process, so one unsorted map range feeding a serializer silently
//     breaks all three. The runtime byte-identity tests catch a given
//     flow only if a test exercises it; the determinism analyzer catches
//     the construct itself.
//
//   - Zero allocation on the analysis hot path. The scratch-arena work
//     (TestWCRTsZeroAllocEN/EP, the benchgate CI gate) holds the
//     steady-state response-time iteration to 0 allocs/op. Those gates
//     measure; the hotpath analyzer explains — it names the construct and
//     the line that would allocate, before a benchmark has to regress.
//
//   - Concurrency discipline. Request contexts must be threaded (server
//     deadlines, PR4) and shared state must honor its declared locking
//     (the store, the singleflight, the obs registry). The ctxflow and
//     lockcheck analyzers enforce the conventions the code comments
//     already state.
//
// # Analyzers
//
//   - determinism: map iteration order reaching serialized output
//     (everywhere), and wall clocks / the global math/rand RNG inside
//     //schedlint:deterministic packages. See Determinism.
//   - hotpath: allocation-inducing constructs in functions transitively
//     reachable from //schedlint:hotpath seeds. See Hotpath.
//   - ctxflow: context.Background/TODO and uncancellable waits inside
//     functions that already take a context. See Ctxflow.
//   - lockcheck: `// guarded by mu` fields accessed without the lock, and
//     mixed atomic/non-atomic access to the same field. See Lockcheck.
//
// # Annotation grammar
//
// Three directives, all written as //schedlint:... comments (no space
// after //, like //go:build):
//
//	//schedlint:deterministic
//
// Package-level, in any file's package doc comment. Declares that every
// result computed by the package must be a pure function of its inputs;
// the determinism analyzer then forbids time.Now/Since/Until and the
// implicitly seeded global math/rand RNG (explicitly seeded *rand.Rand
// constructors remain allowed). Declared by: model, analysis, rta,
// partition, experiments, taskgen.
//
//	//schedlint:hotpath
//
// Function-level, in the function's doc comment. Seeds the hotpath
// analyzer's call-graph closure: the function and everything statically
// reachable from it must not allocate. Annotate the zero-alloc entry
// points (EnumerateViews, MaxFixPoint, taskWCRT, the scratch methods),
// not every function they call.
//
//	//schedlint:ignore <analyzer> <reason>
//
// Line-level escape hatch. Suppresses findings from the named analyzer on
// the comment's own line and the line below it. The reason is mandatory
// and should say why the invariant is not actually violated ("amortized
// arena growth", "detached by design", ...) — an ignore without a reason,
// an unknown analyzer name, or any other malformed //schedlint: comment
// is itself reported as a finding, so annotations cannot rot silently.
//
// # Running
//
//	go run ./cmd/schedlint ./...          # human-readable, exit 1 on findings
//	go run ./cmd/schedlint -json ./...    # machine-readable finding array
//
// CI runs schedlint as a hard gate before the test, bench, race, and
// chaos jobs; a finding fails the build. The analyzers are deliberately
// structural approximations — predictable and annotatable rather than
// clever — and the runtime gates (byte-identity tests, AllocsPerRun, the
// race detector) remain the ground truth they approximate.
package lint
