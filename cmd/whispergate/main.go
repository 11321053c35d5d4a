// Command whispergate is the cluster gateway in front of a pool of
// whisperd backends. It speaks the exact whisperd client protocol, so
// `whisper -remote` and internal/server/client point at it unchanged —
// requests route to the backend whose content-addressed cache already
// holds them (consistent hashing on the whisper-req-v1 hash, bounded-load
// variant), dead or draining backends are detected by active /readyz
// probes and by failed forwards and routed around, and a failed forward
// retries on the next replica. A request runs on one backend unless that
// backend fails it. A backend that is alive but slow — its last four cache
// hits all over 5 ms and over 10× the fastest peer's — goes behind its ring
// successors for later requests until a fresh hit shows it fast again;
// gate.backend.slow and gate.backend.hit_us on /metrics show the verdict.
//
// API:
//
//	POST /v1/run          → forwarded to the hash-affine backend (whisperd-compatible)
//	POST /v1/sweep        {"cells":[{...},{...}]} → scatter-gather stream,
//	                      per-cell envelopes in request order, byte-identical
//	                      to a single-node run of the same cells
//	GET  /v1/experiments  → proxied index
//	GET  /healthz         → ok | 503 (draining or no healthy backends)
//	GET  /readyz          → gateway readiness JSON (backend counts)
//	GET  /metrics         → gateway telemetry (text | json | prom)
//	GET  /traces          → Perfetto trace of gateway spans
//
// The backend set comes from -backends or -backends-file; SIGHUP re-reads
// the file so members can be added or drained out without a restart. The
// first SIGINT/SIGTERM drains (in-flight forwards finish, new work gets
// 503); a second signal hard-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whisper/internal/cli"
	"whisper/internal/cluster"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:8089", "address to serve on")
		backends      = flag.String("backends", "", "comma-separated whisperd backends (host:port or URLs)")
		backendsFile  = flag.String("backends-file", "", "file with one backend per line (# comments); re-read on SIGHUP")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health-check cadence (jittered ±25%)")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "health-check round-trip cap")
		ejectAfter    = flag.Int("eject-after", 3, "consecutive failures, failed probes and failed forwards alike, before a backend is ejected")
		loadFactor    = flag.Float64("load-factor", 1.25, "bounded-load ceiling multiplier over the fair inflight share")
		fwdTimeout    = flag.Duration("forward-timeout", 0, "per-attempt forward cap (0: none)")
		sweepParallel = flag.Int("sweep-parallel", 0, "max concurrent cells per /v1/sweep (<=0: 2x backend count)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight forwards")
		traceOut      = flag.String("trace-out", "", "on shutdown, write a Perfetto/Chrome trace to this file")
		metricsOut    = flag.String("metrics-out", "", "on shutdown, write the metrics snapshot to this file (.json JSON, .prom Prometheus, else text)")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat     = flag.String("log-format", logging.FormatJSON, "log output format: json or text")
	)
	flag.Parse()

	log, err := logging.New(logging.Options{Level: *logLevel, Format: *logFormat, Output: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "whispergate:", err)
		os.Exit(1)
	}
	fatal := func(err error) {
		if errors.Is(err, http.ErrServerClosed) {
			return
		}
		log.Error("whispergate failed", slog.String("error", err.Error()))
		os.Exit(1)
	}

	members, err := loadBackends(*backends, *backendsFile)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	gw, err := cluster.New(cluster.Config{
		Backends:       members,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		EjectAfter:     *ejectAfter,
		LoadFactor:     *loadFactor,
		ForwardTimeout: *fwdTimeout,
		SweepParallel:  *sweepParallel,
		Obs:            reg,
		Log:            log,
	})
	if err != nil {
		fatal(err)
	}
	gw.Start()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: gw.Handler()}
	log.Info("whispergate serving",
		slog.String("addr", "http://"+ln.Addr().String()),
		slog.Any("backends", members),
		slog.Float64("load_factor", *loadFactor),
		slog.Duration("probe_interval", *probeInterval))

	// SIGHUP reloads the backend set from -backends-file without touching
	// in-flight work; retained members keep their health state.
	if *backendsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				next, err := loadBackends("", *backendsFile)
				if err != nil {
					log.Error("backend reload failed", slog.String("error", err.Error()))
					continue
				}
				gw.Pool().SetBackends(next)
				log.Info("backends reloaded", slog.Any("backends", next))
			}
		}()
	}

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}

	log.Info("draining", slog.Duration("timeout", *drainTimeout),
		slog.String("hint", "signal again to exit immediately"))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(drainCtx); err != nil {
		log.Error("drain failed", slog.String("error", err.Error()))
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Error("http shutdown failed", slog.String("error", err.Error()))
	}
	if *traceOut != "" {
		if err := reg.WriteTraceFile(*traceOut, nil); err != nil {
			fatal(err)
		}
		log.Info("trace written", slog.String("path", *traceOut))
	}
	if *metricsOut != "" {
		if err := reg.WriteMetricsFile(*metricsOut); err != nil {
			fatal(err)
		}
		log.Info("metrics written", slog.String("path", *metricsOut))
	}
	log.Info("drained, bye")
}

// loadBackends resolves the member list from the flag and/or file; both
// may be given (union, flag entries first).
func loadBackends(flagList, file string) ([]string, error) {
	var members []string
	for _, b := range strings.Split(flagList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			members = append(members, b)
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading -backends-file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			members = append(members, line)
		}
	}
	if len(members) == 0 {
		return nil, errors.New("no backends: set -backends or -backends-file")
	}
	return members, nil
}
