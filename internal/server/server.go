package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
)

// Config sizes one Server.
type Config struct {
	// Parallel is the sched worker count each execution runs with (<= 0:
	// GOMAXPROCS). Results are byte-identical at every setting; this only
	// budgets CPU per request.
	Parallel int
	// MaxInflight bounds concurrently executing requests (<= 0: NumCPU).
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot beyond MaxInflight; a
	// request past both bounds is rejected with 429 (< 0: 0).
	MaxQueue int
	// RequestTimeout caps one execution's wall clock (<= 0: no deadline).
	RequestTimeout time.Duration
	// CacheEntries bounds the in-memory result LRU (<= 0 with no CacheDir:
	// DefaultCacheEntries).
	CacheEntries int
	// CacheDir, when set, persists results on disk (content-addressed by
	// request hash), surviving restarts.
	CacheDir string
	// Obs receives server telemetry and is what /metrics and /traces serve;
	// nil allocates a fresh registry.
	Obs *obs.Registry
	// Log receives structured serving-path logs (access lines, admission
	// rejects, cache tier hits, coalesces, drain progress); nil discards.
	Log *slog.Logger
}

// DefaultCacheEntries is the memory LRU capacity when none is configured.
const DefaultCacheEntries = 256

// Response headers the serving path sets on every /v1/run reply; the
// request-ID header additionally rides on every other endpoint and every
// error path.
const (
	RequestIDHeader = "X-Whisper-Request-Id"
	HashHeader      = "X-Whisper-Hash"
	CacheHeader     = "X-Whisper-Cache"
)

// Server serves experiment results over HTTP. Zero or one execution runs
// per distinct request hash at any instant (coalescing); completed results
// are cached content-addressed; admission is bounded with backpressure; and
// Shutdown drains in-flight work before returning.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	log   *slog.Logger
	cache *cache
	fl    *flight
	queue *queue

	// run executes one normalized request; tests stub it to control timing.
	run func(ctx context.Context, req Request) ([]byte, error)

	baseCtx  context.Context
	baseStop context.CancelFunc
	// execs gates executions: Shutdown closes it and waits for them.
	execs DrainGate
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Log
	if log == nil {
		log = logging.Discard()
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.NumCPU()
	}
	cfg.MaxQueue = max(cfg.MaxQueue, 0)
	entries := cfg.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	c, err := newCache(entries, cfg.CacheDir, reg)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		log:      log,
		cache:    c,
		fl:       newFlight(),
		queue:    newQueue(cfg.MaxInflight, cfg.MaxQueue, reg),
		baseCtx:  ctx,
		baseStop: stop,
	}
	s.run = func(ctx context.Context, req Request) ([]byte, error) {
		return Execute(ctx, req, cfg.Parallel, reg)
	}
	return s, nil
}

// Obs returns the server's telemetry registry (what /metrics serves).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP API, every route under RequestScope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", Only(http.MethodPost, s.handleRun))
	mux.HandleFunc("/v1/experiments", Only(http.MethodGet, s.handleExperiments))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	MountTelemetry(mux, s.reg, func() { publishPoolGauges(s.reg) })
	return RequestScope(s.log, "request", func(rec *StatusRecorder) []slog.Attr {
		inflight, waiting := s.queue.depth()
		return []slog.Attr{
			slog.String("cache", rec.Header().Get(CacheHeader)),
			slog.Int("queue_inflight", inflight),
			slog.Int("queue_waiting", waiting),
		}
	}, mux)
}

// Shutdown drains the server: new requests are refused (503), in-flight
// executions run to completion — or, once ctx expires, are cancelled through
// their context — and Shutdown returns when every execution has finished.
// The obs registry stays readable after drain so the caller can flush
// metrics and traces.
func (s *Server) Shutdown(ctx context.Context) error {
	s.execs.Close()
	s.reg.Gauge("server.draining").Set(1)
	inflight, waiting := s.queue.depth()
	s.log.LogAttrs(ctx, slog.LevelInfo, "drain started",
		slog.Int("queue_inflight", inflight), slog.Int("queue_waiting", waiting))
	err := s.execs.Wait(ctx)
	if err != nil {
		// Deadline passed: cancel the executions' base context and wait for
		// them to unwind — Shutdown's contract is "no execution survives".
		s.log.LogAttrs(ctx, slog.LevelWarn, "drain deadline expired, cancelling executions",
			slog.String("error", err.Error()))
		s.baseStop()
		s.execs.Wait(context.Background())
	}
	s.baseStop()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "drain complete")
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.execs.Closed() }

// errDraining refuses an execution that won a queue slot after Shutdown
// began; the handler maps it to 503.
var errDraining = errors.New("server: draining")

// errAbandoned wraps a coalescing leader's own context error from the
// admission queue: its client gave up before the execution started. It is
// the leader's failure alone, so followers retry rather than share it.
var errAbandoned = errors.New("server: caller gave up while queued")

// cacheHeader values for X-Whisper-Cache.
const (
	cacheMiss      = "miss"      // this call executed the sweep
	cacheHit       = "hit"       // served from the content-addressed cache
	cacheCoalesced = "coalesced" // shared another in-flight execution
)

// handleRun is POST /v1/run: decode → normalize → hash → cache/coalesce →
// execute. The response body is the canonical envelope — byte-identical
// across all three cache paths and across daemon instances.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	norm, ok := DecodeRun(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	log := logging.From(ctx)
	hash := norm.Hash()
	lbl := obs.L("experiment", norm.Experiment)
	s.reg.Counter("server.requests", lbl).Inc()
	sp := s.reg.StartRequestSpan(ctx, "server.run."+norm.Experiment)
	sp.Attr("hash", hash)
	start := time.Now()
	body, status, err := s.result(ctx, norm, hash)
	sp.Attr("cache", status)
	s.reg.Histogram("server.request.us", lbl).Observe(uint64(time.Since(start).Microseconds()))
	if err != nil {
		sp.Attr("error", err.Error())
		sp.End(0)
		s.reg.Counter("server.errors", lbl).Inc()
		switch {
		case errors.Is(err, errBusy):
			log.LogAttrs(ctx, slog.LevelWarn, "admission rejected",
				slog.String("experiment", norm.Experiment), slog.String("hash", hash))
			w.Header().Set("Retry-After", "1")
			WriteError(w, r, http.StatusTooManyRequests, "server at capacity, retry later")
		case errors.Is(err, errDraining),
			errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			WriteError(w, r, http.StatusServiceUnavailable, err.Error())
		default:
			log.LogAttrs(ctx, slog.LevelError, "execution failed",
				slog.String("experiment", norm.Experiment), slog.String("error", err.Error()))
			WriteError(w, r, http.StatusInternalServerError, err.Error())
		}
		return
	}
	sp.End(0)
	s.reg.Counter("server.responses", lbl, obs.L("cache", status)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HashHeader, hash)
	w.Header().Set(CacheHeader, status)
	w.Write(body)
}

// result resolves one normalized request through cache → coalescing → queue
// → execution, returning the envelope bytes and which path served them.
func (s *Server) result(ctx context.Context, norm Request, hash string) ([]byte, string, error) {
	log := logging.From(ctx)
	if body, tier, ok := s.cache.get(hash); ok {
		if log.Enabled(ctx, slog.LevelDebug) {
			log.LogAttrs(ctx, slog.LevelDebug, "cache hit",
				slog.String("tier", tier), slog.String("hash", hash))
		}
		return body, cacheHit, nil
	}
	lead := func() ([]byte, error) {
		// The leader queues on the caller's context (an abandoning client
		// frees its queue spot) but executes on the server's base context:
		// coalesced followers must not die with the leader's connection, and
		// drain-cancellation flows through baseCtx.
		if err := s.queue.acquire(ctx); err != nil {
			if errors.Is(err, errBusy) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %w", errAbandoned, err)
		}
		defer s.queue.release()
		if !s.execs.Enter() {
			return nil, errDraining
		}
		defer s.execs.Leave()
		if s.baseCtx.Err() != nil {
			return nil, s.baseCtx.Err()
		}
		// Execution runs on baseCtx for cancellation, but keeps the request's
		// observability scope (ID + logger) so sched spans and worker logs
		// stay correlated with the admitting request.
		runCtx := logging.WithRequestID(s.baseCtx, logging.From(ctx), "")
		runCtx = obs.WithRequestID(runCtx, obs.RequestIDFrom(ctx))
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(runCtx, s.cfg.RequestTimeout)
			defer cancel()
		}
		body, err := s.run(runCtx, norm)
		if err != nil {
			return nil, err
		}
		s.cache.put(hash, body)
		return body, nil
	}
	body, shared, err := s.fl.do(hash, lead)
	// A leader whose client gave up while queued fails only itself: a
	// follower whose own context is live asks again, and either leads a new
	// run or joins another follower's. Each retry follows a distinct
	// client's departure, so the loop is bounded by the callers.
	for shared && errors.Is(err, errAbandoned) && ctx.Err() == nil {
		body, shared, err = s.fl.do(hash, lead)
	}
	status := cacheMiss
	if shared {
		status = cacheCoalesced
		s.reg.Counter("server.coalesced").Inc()
		if log.Enabled(ctx, slog.LevelDebug) {
			log.LogAttrs(ctx, slog.LevelDebug, "coalesced onto in-flight execution",
				slog.String("hash", hash))
		}
	}
	if err != nil {
		var pe *panicError
		if !shared && errors.As(err, &pe) {
			s.reg.Counter("server.panics").Inc()
			log.LogAttrs(ctx, slog.LevelError, "execution panicked",
				slog.String("hash", hash), slog.String("panic", fmt.Sprint(pe.value)),
				slog.String("stack", string(pe.stack)))
		}
		return nil, status, err
	}
	return body, status, nil
}

// experimentsIndex is the GET /v1/experiments document.
type experimentsIndex struct {
	Experiments []string `json:"experiments"`
	Attacks     []string `json:"attacks"`
	Defaults    Request  `json:"defaults"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	def, err := Request{Experiment: "table2"}.Normalize()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	idx := experimentsIndex{
		Experiments: Experiments(),
		Attacks:     experiments.AttackNames(),
		Defaults:    def,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(idx)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Readiness is the /readyz document: health plus enough admission detail
// for a load balancer to act early. A gateway stops routing to a backend
// whose readiness reports draining before the backend starts answering
// 503, and can weigh queue depth into placement decisions.
type Readiness struct {
	Status        string `json:"status"` // "ok" | "draining"
	Draining      bool   `json:"draining"`
	QueueInflight int    `json:"queue_inflight"`
	QueueWaiting  int    `json:"queue_waiting"`
	MaxInflight   int    `json:"max_inflight"`
	MaxQueue      int    `json:"max_queue"`
}

// Ready reports the server's current readiness document.
func (s *Server) Ready() Readiness {
	inflight, waiting := s.queue.depth()
	ready := Readiness{
		Status:        "ok",
		Draining:      s.Draining(),
		QueueInflight: inflight,
		QueueWaiting:  waiting,
		MaxInflight:   s.cfg.MaxInflight,
		MaxQueue:      s.cfg.MaxQueue,
	}
	if ready.Draining {
		ready.Status = "draining"
	}
	return ready
}

// handleReady is GET /readyz: the JSON readiness document, 200 while
// serving and 503 (same body) once draining — unlike /healthz's bare
// "ok"/error split, the body is identical either way so probers read one
// shape.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := s.Ready()
	status := http.StatusOK
	if ready.Draining {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ready)
}

// publishPoolGauges refreshes the machine-reuse gauges from the process-wide
// machine pools. Recycling simulator machines across requests — not just
// within one sweep — is a core reason results are served from one daemon, so
// /metrics surfaces how much reuse the pools actually deliver.
func publishPoolGauges(reg *obs.Registry) {
	for _, p := range []struct {
		name  string
		stats cpu.PoolStats
	}{
		{"sweep", experiments.MachinePoolStats()},
		{"farm", core.FarmPoolStats()},
	} {
		lbl := obs.L("pool", p.name)
		reg.Gauge("server.machines.gets", lbl).Set(float64(p.stats.Gets))
		reg.Gauge("server.machines.reuses", lbl).Set(float64(p.stats.Reuses))
		reg.Gauge("server.machines.idle", lbl).Set(float64(p.stats.Idle))
	}
}
