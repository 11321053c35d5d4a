package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/pmu"
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
	inflight sync.WaitGroup

	mu       sync.Mutex
	draining bool
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

// Handler returns the daemon's HTTP API. Every route runs under the
// request-ID middleware: the ID is accepted from (or minted into)
// X-Whisper-Request-Id, echoed on every response — error paths included —
// threaded through the context into execution spans, and closed out with a
// structured access-log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	return s.withRequestScope(mux)
}

// StatusRecorder captures the status and body size an inner handler wrote,
// for the access-log lines of whisperd and the gateway.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
	Bytes  int64
}

func (r *StatusRecorder) WriteHeader(status int) {
	r.Status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *StatusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.Bytes += int64(n)
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController, so a handler
// behind the recorder can still flush (the gateway's /v1/sweep stream does).
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// withRequestScope is the request-ID + access-log middleware.
func (s *Server) withRequestScope(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := logging.WithRequestID(r.Context(), s.log, id)
		rec := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		if log := logging.From(ctx); log.Enabled(ctx, slog.LevelInfo) {
			inflight, waiting := s.queue.depth()
			log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.Status),
				slog.Int64("bytes", rec.Bytes),
				slog.Int64("dur_us", time.Since(start).Microseconds()),
				slog.String("cache", rec.Header().Get(CacheHeader)),
				slog.Int("queue_inflight", inflight),
				slog.Int("queue_waiting", waiting),
			)
		}
	})
}

// errorBody is the JSON error envelope every non-200 response carries; the
// request ID rides inside so a failed call is correlatable from the body
// alone (clients echo it into their errors).
type errorBody struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError replaces http.Error on every serving path of whisperd and the
// gateway: a structured JSON body with an explicit Content-Type and the
// request ID echoed both in the (middleware-set) header and the body.
func WriteError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(errorBody{Error: msg, Status: status, RequestID: obs.RequestIDFrom(r.Context())})
}

// MaxRunBody caps a POST /v1/run body. A request with the longest secret
// Normalize accepts, every byte escaped, and every attack family named is
// under 2 KiB.
const MaxRunBody = 64 << 10

// DecodeBody decodes r's JSON body into v, refusing unknown fields and a
// body that runs past limit bytes. On failure it returns the status to
// answer with: 413 for an oversized body, 400 for any other bad one.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request: %w", err)
	}
	return http.StatusOK, nil
}

// Shutdown drains the server: new requests are refused (503), in-flight
// executions run to completion — or, once ctx expires, are cancelled through
// their context — and Shutdown returns when every execution has finished.
// The obs registry stays readable after drain so the caller can flush
// metrics and traces.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.reg.Gauge("server.draining").Set(1)
	inflight, waiting := s.queue.depth()
	s.log.LogAttrs(ctx, slog.LevelInfo, "drain started",
		slog.Int("queue_inflight", inflight), slog.Int("queue_waiting", waiting))

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: cancel the executions' base context and wait for
		// them to unwind — Shutdown's contract is "no execution survives".
		err = ctx.Err()
		s.log.LogAttrs(ctx, slog.LevelWarn, "drain deadline expired, cancelling executions",
			slog.String("error", err.Error()))
		s.baseStop()
		<-done
	}
	s.baseStop()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "drain complete")
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errDraining refuses an execution that won a queue slot after Shutdown
// began; the handler maps it to 503.
var errDraining = errors.New("server: draining")

// errAbandoned wraps a coalescing leader's own context error from the
// admission queue: its client gave up before the execution started. It is
// the leader's failure alone, so followers retry rather than share it.
var errAbandoned = errors.New("server: caller gave up while queued")

// beginExec atomically checks the drain flag and registers an execution, so
// Shutdown's Wait provably covers every execution that was admitted: an
// execution either registered before draining was set (and Wait blocks on
// it) or is refused.
func (s *Server) beginExec() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

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
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.Draining() {
		WriteError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	var req Request
	if status, err := DecodeBody(w, r, MaxRunBody, &req); err != nil {
		WriteError(w, r, status, err.Error())
		return
	}
	norm, err := req.Normalize()
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	log := logging.From(ctx)
	hash := norm.Hash()
	lbl := obs.L("experiment", norm.Experiment)
	s.reg.Counter("server.requests", lbl).Inc()
	sp := s.reg.StartDetachedWallSpan("server.run." + norm.Experiment)
	sp.Attr("hash", hash)
	if id := obs.RequestIDFrom(ctx); id != "" {
		sp.Attr(obs.RequestIDAttr, id)
	}
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
		if !s.beginExec() {
			return nil, errDraining
		}
		defer s.inflight.Done()
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
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
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

// Metrics exposition formats /metrics negotiates between.
const (
	metricsText = "text" // the aligned text table (default)
	metricsJSON = "json"
	metricsProm = "prom" // Prometheus text exposition 0.0.4
)

// negotiateMetricsFormat resolves ?format= (authoritative when present) then
// the Accept header into one exposition format. Unknown ?format values are
// an error so typos fail loudly instead of silently serving the default.
func negotiateMetricsFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
	case metricsText:
		return metricsText, nil
	case metricsJSON:
		return metricsJSON, nil
	case metricsProm, "prometheus", "openmetrics":
		return metricsProm, nil
	default:
		return "", fmt.Errorf("unknown metrics format %q (have text, json, prom)", f)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/json"):
		return metricsJSON, nil
	case strings.Contains(accept, "application/openmetrics-text"),
		strings.Contains(accept, "text/plain") && strings.Contains(accept, "version=0.0.4"):
		// The Accept signature Prometheus scrapers send.
		return metricsProm, nil
	default:
		return metricsText, nil
	}
}

// handleMetrics serves the obs registry snapshot through one negotiated
// writer: the aligned text table by default, JSON for JSON clients, and the
// Prometheus text exposition for standard scrapers — always with an explicit
// Content-Type (the CLIs' -metrics-out flag writes the same three renderings
// by file suffix).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	publishPoolGauges(s.reg)
	if err := ServeMetricsSnapshot(w, r, s.reg); err != nil {
		WriteError(w, r, http.StatusBadRequest, err.Error())
	}
}

// ServeMetricsSnapshot writes reg's snapshot in the format negotiated from
// r (?format= then Accept) with an explicit Content-Type. A returned error
// is a negotiation error the caller should map to 400; nothing has been
// written in that case. Shared by whisperd's and whispergate's /metrics so
// both ends of a cluster expose the same three renderings.
func ServeMetricsSnapshot(w http.ResponseWriter, r *http.Request, reg *obs.Registry) error {
	format, err := negotiateMetricsFormat(r)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	switch format {
	case metricsJSON:
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
	case metricsProm:
		w.Header().Set("Content-Type", obs.PromContentType)
		snap.WritePrometheus(w)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
	}
	return nil
}

// handleTraces serves the Perfetto/Chrome trace of everything the registry
// has recorded — request spans included — ready for ui.perfetto.dev.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.ExportTrace(w, []pmu.Event(nil))
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
