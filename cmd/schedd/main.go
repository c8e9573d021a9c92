// Command schedd serves the schedulability engine over HTTP: a
// long-running daemon around internal/server with content-addressed result
// caching, request coalescing, bounded admission, and durable asynchronous
// sweep jobs.
//
//	schedd -addr :8080 -workers 0 -cache-size 4096 -max-body 8388608 \
//	       -store-dir /var/lib/schedd
//
//	curl -s localhost:8080/v1/analyze -d @request.json
//	curl -s 'localhost:8080/v1/grid?scenario=2a&n=25'
//	curl -s localhost:8080/v1/sweeps -d '{"scenarios":["2a","2b"],"n":25}'
//	curl -s localhost:8080/v1/sweeps/<id>
//	curl -s localhost:8080/v1/metrics
//
// With -store-dir set, analysis results persist in an on-disk
// content-addressed store (restarts keep the cache warm) and sweep jobs
// checkpoint per-point progress there (fsynced); a restarted daemon
// resumes unfinished sweeps. A failing store trips a circuit breaker
// (-store-breaker-threshold consecutive errors) and the daemon keeps
// serving from memory — degraded, not down; /healthz reports the state and
// -store-breaker-probe paces recovery probes.
//
// Time bounds: -read-timeout and -idle-timeout harden the listener against
// slow-loris clients, -write-deadline bounds each response write (streams
// re-arm it per line, so long curves still flow), and -request-timeout
// caps one request's analysis latency (0 = unbounded; requests can always
// set their own timeout_ms).
//
// Observability: structured logs go to stderr (-log-level, -log-format
// text|json), request latency / per-stage analysis histograms and every
// service counter are exported in Prometheus text format at GET /metrics,
// recent per-request trace spans at GET /v1/debug/traces (echoed as a
// Server-Timing header), the access log is sampled (-access-log-sample N
// logs every Nth request; 0 disables), and -pprof-addr serves
// net/http/pprof on a separate listener so profiling is never exposed on
// the service port. -version prints build info and exits.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// complete (bounded by -shutdown-timeout), new connections are refused,
// and sweep jobs checkpoint so nothing is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpcpp/internal/obs"
	"dpcpp/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the testable entry point. When ready is non-nil it receives the
// bound listener address once the server accepts connections (tests bind
// -addr 127.0.0.1:0 and read the port from here).
func run(args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
		cacheSize   = fs.Int("cache-size", server.DefaultCacheSize, "result cache capacity (entries)")
		maxBody     = fs.Int64("max-body", server.DefaultMaxBody, "request body limit (bytes)")
		maxQueue    = fs.Int("max-queue", 0, "admission queue bound in jobs (0 = max(1024*workers, 65536))")
		storeDir    = fs.String("store-dir", "", "persistent result store + sweep-job checkpoints (empty = in-memory only)")
		shutTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown budget")

		reqTimeout    = fs.Duration("request-timeout", 0, "per-request analysis deadline; past it the request gets a structured 503 timeout (0 = unbounded)")
		readTimeout   = fs.Duration("read-timeout", time.Minute, "full-request read deadline (slow-loris protection)")
		idleTimeout   = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection deadline")
		writeDeadline = fs.Duration("write-deadline", server.DefaultWriteDeadline, "per-write response deadline; NDJSON streams re-arm it per line")

		brThreshold = fs.Int("store-breaker-threshold", server.DefaultBreakerThreshold, "consecutive store failures that open the circuit breaker (degraded mode)")
		brProbe     = fs.Duration("store-breaker-probe", server.DefaultBreakerProbe, "recovery-probe interval while the store breaker is open")
		faultWrites = fs.Int("fault-writes", 0, "TESTING ONLY: fail the first N store writes with an injected I/O error")

		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = fs.String("log-format", "text", "log format: text or json")
		accessEvery = fs.Int("access-log-sample", 0, "log every Nth request (0 = no access log)")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		version     = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stderr, "schedd "+obs.BuildInfo().String())
		return 0
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	srv, err := server.New(server.Config{
		Workers:               *workers,
		CacheSize:             *cacheSize,
		MaxBody:               *maxBody,
		MaxQueue:              *maxQueue,
		RequestTimeout:        *reqTimeout,
		WriteDeadline:         *writeDeadline,
		StoreDir:              *storeDir,
		StoreBreakerThreshold: *brThreshold,
		StoreBreakerProbe:     *brProbe,
		FaultWrites:           *faultWrites,
		Logger:                logger,
		AccessLogEvery:        *accessEvery,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer srv.Close()

	if *pprofAddr != "" {
		// pprof gets its own listener and mux: profiling endpoints never
		// share the service port, and nothing leaks via http.DefaultServeMux.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pln.Close()
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", httppprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go http.Serve(pln, pm)
		logger.Info("pprof listening", "addr", pln.Addr().String())
	}
	hs := &http.Server{
		Handler: srv,
		// ReadTimeout bounds the whole request read; bodies are small
		// (taskset JSON), so a client that cannot finish one inside it is
		// stalling, not slow. WriteTimeout stays 0 on purpose: the per-write
		// deadlines set via http.ResponseController would be capped by it,
		// and NDJSON streams must be able to outlive any fixed total bound.
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       *idleTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b := obs.BuildInfo()
	logger.Info("schedd listening",
		"addr", ln.Addr().String(),
		"workers", *workers,
		"store_dir", *storeDir,
		"version", b.Version,
		"revision", b.Revision,
		"go", b.GoVersion,
	)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
		stop()
		logger.Info("schedd shutting down", "budget", (*shutTimeout).String())
		sctx, cancel := context.WithTimeout(context.Background(), *shutTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			return 1
		}
		logger.Info("schedd stopped")
		return 0
	}
}
