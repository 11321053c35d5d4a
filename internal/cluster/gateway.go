package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
)

// Config sizes one Gateway and its backend pool.
type Config struct {
	// Backends is the initial whisperd member list ("host:port" or full
	// URLs).
	Backends []string
	// ProbeInterval is the health-check cadence (jittered ±25%) and the
	// first reinstatement backoff of an ejected backend (<= 0:
	// defaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout caps one probe round trip (<= 0: defaultProbeTimeout).
	ProbeTimeout time.Duration
	// EjectAfter is how many consecutive failures, probes and forwards
	// alike, eject a backend (<= 0: defaultEjectAfter).
	EjectAfter int
	// LoadFactor is the bounded-load ceiling multiplier: a backend is
	// skipped (affinity permitting) once its inflight count exceeds
	// LoadFactor× the fair share (<= 1: defaultLoadFactor).
	LoadFactor float64
	// Hedge is ignored.
	//
	// Deprecated: the gateway no longer hedges; the field remains only
	// until the benchmark stops setting it.
	Hedge bool
	// ForwardTimeout caps one forwarded attempt (<= 0: none; the caller's
	// context still applies).
	ForwardTimeout time.Duration
	// SweepParallel bounds concurrent cells per /v1/sweep request (<= 0:
	// 2× the configured backend count).
	SweepParallel int
	// HTTP is the forwarding and probing transport; nil uses a dedicated
	// client.
	HTTP *http.Client
	// Obs receives gateway telemetry (what /metrics and /traces serve);
	// nil allocates a fresh registry.
	Obs *obs.Registry
	// Log receives structured gateway logs; nil discards.
	Log *slog.Logger
}

// Gateway fronts a pool of whisperd backends with cache-affinity routing,
// health-checked failover, and a scatter-gather sweep endpoint.
// It speaks the exact whisperd client protocol on /v1/run, so existing
// clients (whisper -remote, internal/server/client) point at it unchanged.
type Gateway struct {
	cfg  Config
	reg  *obs.Registry
	log  *slog.Logger
	pool *Pool
	http *http.Client

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// New builds a Gateway over cfg.Backends. Call Start to begin health
// probing and Shutdown to drain.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	pool := newPool(cfg)
	cfg = pool.cfg
	return &Gateway{cfg: cfg, reg: cfg.Obs, log: cfg.Log, pool: pool, http: cfg.HTTP}, nil
}

// Obs returns the gateway's telemetry registry.
func (g *Gateway) Obs() *obs.Registry { return g.reg }

// Pool returns the gateway's backend pool (for reload and introspection).
func (g *Gateway) Pool() *Pool { return g.pool }

// Start launches the pool's health-check loop.
func (g *Gateway) Start() { g.pool.Start() }

// Shutdown drains the gateway: new requests get 503, in-flight forwards
// and sweeps finish (or are abandoned when ctx expires), and probing stops.
// It may be called before Start and more than once.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	g.reg.Gauge("gate.draining").Set(1)
	g.pool.Stop()
	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// begin registers one in-flight request unless the gateway is draining.
func (g *Gateway) begin() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight.Add(1)
	return true
}

// BackendHeader names the backend that served a forwarded response — the
// one gateway-added header; everything else passes through untouched so
// gateway bytes are backend bytes.
const BackendHeader = "X-Whisper-Backend"

// Handler returns the gateway's HTTP API: the whisperd-compatible /v1/run
// and /v1/experiments, the scatter-gather /v1/sweep, and the gateway's own
// health/readiness/telemetry endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", g.handleRun)
	mux.HandleFunc("/v1/sweep", g.handleSweep)
	mux.HandleFunc("/v1/experiments", g.handleExperiments)
	mux.HandleFunc("/healthz", g.handleHealth)
	mux.HandleFunc("/readyz", g.handleReady)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/traces", g.handleTraces)
	return g.withRequestScope(mux)
}

// withRequestScope is the gateway's request-ID + access-log middleware.
// The ID is adopted from (or minted into) X-Whisper-Request-Id and rides
// every backend hop, so one client exchange correlates across the gateway
// log, each backend's access log, and both Perfetto traces.
func (g *Gateway) withRequestScope(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(server.RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(server.RequestIDHeader, id)
		ctx := logging.WithRequestID(r.Context(), g.log, id)
		rec := &server.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		if log := logging.From(ctx); log.Enabled(ctx, slog.LevelInfo) {
			log.LogAttrs(ctx, slog.LevelInfo, "gateway request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.Status),
				slog.Int64("bytes", rec.Bytes),
				slog.Int64("dur_us", time.Since(start).Microseconds()),
				slog.String("backend", rec.Header().Get(BackendHeader)),
				slog.Int("backends_healthy", g.pool.Healthy()),
			)
		}
	})
}

// handleRun is POST /v1/run: normalize and hash locally (a malformed
// request never costs a backend hop), route by hash for cache affinity,
// forward with retry on the next replica, and relay the answering
// backend's response verbatim.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !g.begin() {
		server.WriteError(w, r, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	defer g.inflight.Done()
	var req server.Request
	if status, err := server.DecodeBody(w, r, server.MaxRunBody, &req); err != nil {
		server.WriteError(w, r, status, err.Error())
		return
	}
	norm, err := req.Normalize()
	if err != nil {
		server.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	g.reg.Counter("gate.requests", obs.L("experiment", norm.Experiment)).Inc()
	res := g.forwardRun(r.Context(), norm)
	g.relay(w, r, res)
}

// relay writes a forward outcome to the client.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, res fwdResult) {
	if res.err != nil {
		status := http.StatusBadGateway
		if errors.Is(res.err, errNoBackends) {
			status = http.StatusServiceUnavailable
		}
		server.WriteError(w, r, status, res.err.Error())
		return
	}
	for _, k := range []string{"Content-Type", "Retry-After",
		server.HashHeader, server.CacheHeader} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set(BackendHeader, res.backend)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// errNoBackends is the routing dead-end: nothing healthy to forward to.
var errNoBackends = errors.New("cluster: no healthy backends")

// fwdResult is one forwarded exchange's outcome. err is a transport-level
// failure after all candidates were tried; otherwise status/header/body
// relay the backend's response verbatim.
type fwdResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string
	retry   bool // internal: this attempt may be retried on the next replica
	err     error
}

// forwardRun resolves one normalized request through the cluster, routed by
// its canonical hash. POST /v1/run is safe to retry because it is
// idempotent by the serving contract: equal canonical hashes denote equal
// bytes.
func (g *Gateway) forwardRun(ctx context.Context, norm server.Request) fwdResult {
	hash := norm.Hash()
	payload, err := json.Marshal(norm)
	if err != nil {
		return fwdResult{err: fmt.Errorf("cluster: encoding request: %w", err)}
	}
	sp := g.reg.StartDetachedWallSpan("gate.run." + norm.Experiment)
	sp.Attr("hash", hash)
	if id := obs.RequestIDFrom(ctx); id != "" {
		sp.Attr(obs.RequestIDAttr, id)
	}
	res := g.forward(ctx, hash, http.MethodPost, "/v1/run", payload)
	sp.Attr("backend", res.backend)
	if res.err != nil {
		sp.Attr("error", res.err.Error())
	} else {
		sp.Attr("cache", res.header.Get(server.CacheHeader))
	}
	sp.End(0)
	return res
}

// forward sends one request to the pool's candidates for key in order, one
// at a time, moving on only after a retryable failure (a connection error,
// an unreadable body or a 5xx), and returns the first answer that cannot be
// retried. Nothing else is ever retried, so a request reaches a second
// backend only when its first one failed it.
func (g *Gateway) forward(ctx context.Context, key, method, path string, body []byte) fwdResult {
	cands := g.pool.pick(key)
	if len(cands) == 0 {
		g.reg.Counter("gate.errors", obs.L("kind", "no_backends")).Inc()
		return fwdResult{err: errNoBackends}
	}
	var res fwdResult
	for _, b := range cands {
		if res = g.attempt(ctx, b, method, path, body); !res.retry {
			break
		}
		g.reg.Counter("gate.retries", obs.L("backend", res.backend)).Inc()
	}
	if res.retry && res.err == nil {
		res.err = fmt.Errorf("cluster: all %d candidate backends failed (last: %s %d)",
			len(cands), res.backend, res.status)
	}
	return res
}

// attempt sends one request (body nil for none) to one backend and
// classifies the outcome. Connection errors, unreadable bodies and 5xx are
// retryable (the backend is dead, draining, or broken — a replica can serve
// the same bytes) and count against the backend's health; 429 and other 4xx
// are final and relayed verbatim, Retry-After included, so the backpressure
// contract survives the extra hop. A 200's forward time feeds the backend's
// cache-hit window.
func (g *Gateway) attempt(ctx context.Context, b *backend, method, path string, body []byte) fwdResult {
	b.inflight.Add(1)
	g.reg.Gauge("gate.backend.inflight", obs.L("backend", b.name)).Set(float64(b.inflight.Load()))
	defer func() {
		b.inflight.Add(-1)
		g.reg.Gauge("gate.backend.inflight", obs.L("backend", b.name)).Set(float64(b.inflight.Load()))
	}()

	actx := ctx
	if g.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, g.cfg.ForwardTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(actx, method, b.base+path, rd)
	if err != nil {
		return fwdResult{backend: b.name, err: err}
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		hreq.Header.Set(server.RequestIDHeader, id)
	}
	start := time.Now()
	resp, err := g.http.Do(hreq)
	if err != nil {
		return g.failed(ctx, b, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return g.failed(ctx, b, err)
	}
	res := fwdResult{status: resp.StatusCode, header: resp.Header, body: data, backend: b.name}
	if resp.StatusCode >= 500 {
		g.pool.apply(b, forwardFailed, 0)
		res.retry = true
		return res
	}
	g.pool.apply(b, forwardOK, 0)
	if resp.StatusCode == http.StatusOK {
		took := time.Since(start)
		g.reg.Counter("gate.forwarded", obs.L("backend", b.name)).Inc()
		g.reg.Histogram("gate.forward.us", obs.L("backend", b.name)).Observe(uint64(took.Microseconds()))
		g.pool.observe(b, resp.Header.Get(server.CacheHeader), took)
	}
	return res
}

// failed classifies a forward that got no complete response. It is a
// retryable backend failure only if the parent request is still alive: an
// attempt cancelled because the client left says nothing about the backend.
func (g *Gateway) failed(ctx context.Context, b *backend, err error) fwdResult {
	if ctx.Err() != nil {
		return fwdResult{backend: b.name, err: err}
	}
	g.pool.apply(b, forwardFailed, 0)
	return fwdResult{backend: b.name, retry: true, err: err}
}

// handleExperiments proxies GET /v1/experiments — every backend serves the
// same index — through the same drain gate, candidate order, retries and
// health accounting as /v1/run.
func (g *Gateway) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !g.begin() {
		server.WriteError(w, r, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	defer g.inflight.Done()
	g.relay(w, r, g.forward(r.Context(), "experiments-index", http.MethodGet, "/v1/experiments", nil))
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if g.Draining() {
		server.WriteError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	if g.pool.Healthy() == 0 {
		server.WriteError(w, r, http.StatusServiceUnavailable, errNoBackends.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// GateReadiness is the gateway's /readyz document.
type GateReadiness struct {
	Status          string `json:"status"` // "ok" | "draining" | "no_backends"
	Draining        bool   `json:"draining"`
	BackendsHealthy int    `json:"backends_healthy"`
	BackendsTotal   int    `json:"backends_total"`
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := GateReadiness{
		Status:          "ok",
		Draining:        g.Draining(),
		BackendsHealthy: g.pool.Healthy(),
		BackendsTotal:   g.pool.Size(),
	}
	status := http.StatusOK
	switch {
	case ready.Draining:
		ready.Status = "draining"
		status = http.StatusServiceUnavailable
	case ready.BackendsHealthy == 0:
		ready.Status = "no_backends"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ready)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.pool.publishHealthGauges()
	if err := server.ServeMetricsSnapshot(w, r, g.reg); err != nil {
		server.WriteError(w, r, http.StatusBadRequest, err.Error())
	}
}

func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.reg.ExportTrace(w, nil)
}
