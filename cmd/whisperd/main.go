// Command whisperd serves the Whisper experiments over HTTP: every sweep
// and attack of internal/experiments behind a content-addressed result
// cache with request coalescing, a bounded admission queue, and graceful
// drain. Because every experiment is a pure function of its normalized
// request (the determinism contract the scheduler and simulator layers pin),
// a cached or coalesced response is byte-identical to a cold run — which
// `whisperd -oneshot` also prints, so the CI smoke job can diff the two.
//
// API:
//
//	POST /v1/run         {"experiment":"table2","seed":7}  → result envelope
//	GET  /v1/experiments                                   → servable index
//	GET  /healthz                                          → ok | 503 draining
//	GET  /metrics[?format=text|json|prom]                  → obs snapshot
//	GET  /traces                                           → Perfetto trace
//
// All operational output is structured logging on stderr (JSON lines by
// default; -log-format=text for humans), keyed by the request ID that also
// rides the X-Whisper-Request-Id header, trace span attributes, and error
// bodies. -debug-addr exposes net/http/pprof and expvar on a second,
// opt-in listener so profiling never shares the serving port.
//
// The first SIGINT/SIGTERM starts the drain: new requests get 503, in-flight
// executions finish (bounded by -drain-timeout), telemetry flushes, and the
// process exits 0. A second signal hard-exits immediately.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"whisper/internal/cli"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8090", "address to serve on")
		parallel     = flag.Int("parallel", 0, "sched workers per execution (<=0: GOMAXPROCS); results are identical at any setting")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently executing requests (<=0: NumCPU)")
		maxQueue     = flag.Int("max-queue", 8, "max requests waiting beyond -max-inflight before 429s")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-execution wall-clock cap (0: none)")
		cacheEntries = flag.Int("cache-entries", server.DefaultCacheEntries, "in-memory result cache capacity (entries)")
		cacheDir     = flag.String("cache-dir", "", "persist results under this directory (content-addressed; survives restarts)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before cancelling them")
		oneshot      = flag.String("oneshot", "", "run one experiment directly (no HTTP), print the canonical envelope to stdout, and exit")
		seed         = flag.Int64("seed", 0, "request seed for -oneshot (0: the experiment default)")
		traceOut     = flag.String("trace-out", "", "on shutdown, write a Perfetto/Chrome trace to this file")
		metricsOut   = flag.String("metrics-out", "", "on shutdown, write the metrics snapshot to this file (.json JSON, .prom Prometheus, else text)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", logging.FormatJSON, "log output format: json (one object per line) or text")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this extra address (empty: disabled)")
	)
	flag.Parse()

	log, err := logging.New(logging.Options{Level: *logLevel, Format: *logFormat, Output: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "whisperd:", err)
		os.Exit(1)
	}
	fatal := func(err error) {
		log.Error("whisperd failed", slog.String("error", err.Error()))
		os.Exit(1)
	}

	if *oneshot != "" {
		// The reference path: no cache, no queue, no HTTP. A daemon response
		// for the same request is byte-identical to these bytes; logging goes
		// to stderr so stdout stays the canonical envelope alone.
		ctx, stop := cli.SignalContext(context.Background())
		defer stop()
		ctx = logging.With(ctx, log)
		body, err := server.Execute(ctx, server.Request{Experiment: *oneshot, Seed: *seed}, *parallel, nil)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(body)
		return
	}

	srv, err := server.New(server.Config{
		Parallel:       *parallel,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		Log:            log,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Info("whisperd serving",
		slog.String("addr", "http://"+ln.Addr().String()),
		slog.Any("experiments", server.Experiments()),
		slog.Int("parallel", *parallel),
		slog.Int("max_inflight", *maxInflight),
		slog.Int("max_queue", *maxQueue),
		slog.Int("cache_entries", *cacheEntries),
		slog.String("cache_dir", *cacheDir),
		slog.String("log_level", *logLevel),
		slog.String("log_format", *logFormat))

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		dbg := &http.Server{Handler: debugMux()}
		go dbg.Serve(dln)
		defer dbg.Close()
		log.Info("debug endpoints serving",
			slog.String("addr", "http://"+dln.Addr().String()),
			slog.Any("paths", []string{"/debug/pprof/", "/debug/vars"}))
	}

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := server.Serve(ctx, ln, srv, server.ServeOptions{
		Log: log, DrainTimeout: *drainTimeout, TraceOut: *traceOut, MetricsOut: *metricsOut,
	}); err != nil {
		fatal(err)
	}
}

// debugMux mounts the stdlib profiling surface on a dedicated mux, so the
// opt-in -debug-addr listener — never the serving one — exposes it.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
