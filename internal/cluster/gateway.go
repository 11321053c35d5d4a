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
	// Hedge enables hedged requests: once a forward has been in flight
	// longer than the experiment's observed p95 (floored by HedgeMin), a
	// duplicate is fired at the next replica and the loser is cancelled.
	Hedge bool
	// HedgeMin floors the hedge delay (<= 0: defaultHedgeMin).
	HedgeMin time.Duration
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
// health-checked failover, hedging, and a scatter-gather sweep endpoint.
// It speaks the exact whisperd client protocol on /v1/run, so existing
// clients (whisper -remote, internal/server/client) point at it unchanged.
type Gateway struct {
	cfg  Config
	reg  *obs.Registry
	log  *slog.Logger
	pool *Pool
	lat  *latencies
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
	return &Gateway{cfg: cfg, reg: cfg.Obs, log: cfg.Log, pool: pool, lat: newLatencies(), http: cfg.HTTP}, nil
}

// Obs returns the gateway's telemetry registry.
func (g *Gateway) Obs() *obs.Registry { return g.reg }

// Pool returns the gateway's backend pool (for reload and introspection).
func (g *Gateway) Pool() *Pool { return g.pool }

// Start launches the pool's health-check loop.
func (g *Gateway) Start() { g.pool.Start() }

// Shutdown drains the gateway: new requests get 503, in-flight forwards
// and sweeps finish (or are abandoned when ctx expires), and probing stops.
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
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		if log := logging.From(ctx); log.Enabled(ctx, slog.LevelInfo) {
			log.LogAttrs(ctx, slog.LevelInfo, "gateway request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Int64("dur_us", time.Since(start).Microseconds()),
				slog.String("backend", rec.Header().Get(BackendHeader)),
				slog.Int("backends_healthy", g.pool.Healthy()),
			)
		}
	})
}

// statusRecorder captures what the inner handler wrote, for access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// writeError mirrors the backend's JSON error envelope so gateway-minted
// errors are shaped like backend-minted ones.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error     string `json:"error"`
		Status    int    `json:"status"`
		RequestID string `json:"request_id,omitempty"`
	}{msg, status, obs.RequestIDFrom(r.Context())})
}

// handleRun is POST /v1/run: normalize and hash locally (a malformed
// request never costs a backend hop), route by hash for cache affinity,
// forward with retry/hedging, and relay the winning backend's response
// verbatim.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !g.begin() {
		writeError(w, r, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	defer g.inflight.Done()
	var req server.Request
	if status, err := server.DecodeBody(w, r, server.MaxRunBody, &req); err != nil {
		writeError(w, r, status, err.Error())
		return
	}
	norm, err := req.Normalize()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
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
		writeError(w, r, status, res.err.Error())
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
	hedged  bool // the winning attempt was a hedge
	retry   bool // internal: this attempt may be retried on the next replica
	err     error
}

// forwardRun resolves one normalized request through the cluster: ring
// candidates by hash, sequential retry-on-next-replica for connection
// errors and 5xx, and an optional hedged duplicate once the primary
// outlives the experiment's p95. POST /v1/run is safe to both retry and
// hedge because it is idempotent by the serving contract: equal canonical
// hashes denote equal bytes. Nothing else is ever retried or hedged.
func (g *Gateway) forwardRun(ctx context.Context, norm server.Request) fwdResult {
	hash := norm.Hash()
	payload, err := json.Marshal(norm)
	if err != nil {
		return fwdResult{err: fmt.Errorf("cluster: encoding request: %w", err)}
	}
	cands := g.pool.pick(hash)
	if len(cands) == 0 {
		g.reg.Counter("gate.errors", obs.L("kind", "no_backends")).Inc()
		return fwdResult{err: errNoBackends}
	}
	sp := g.reg.StartDetachedWallSpan("gate.run." + norm.Experiment)
	sp.Attr("hash", hash)
	if id := obs.RequestIDFrom(ctx); id != "" {
		sp.Attr(obs.RequestIDAttr, id)
	}
	res := g.race(ctx, norm.Experiment, cands, payload)
	sp.Attr("backend", res.backend)
	sp.AttrBool("hedged", res.hedged)
	if res.err != nil {
		sp.Attr("error", res.err.Error())
	} else {
		sp.Attr("cache", res.header.Get(server.CacheHeader))
	}
	sp.End(0)
	return res
}

// race runs the attempt ladder over cands: the primary starts immediately;
// a hedge may start after the p95 delay; each retryable failure starts the
// next candidate. The first final (non-retryable) result wins and every
// other attempt is cancelled through its context.
func (g *Gateway) race(ctx context.Context, exp string, cands []*backend, payload []byte) fwdResult {
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan fwdResult, len(cands))
	next := 0
	launched := 0
	launch := func(hedged bool) {
		b := cands[next]
		next++
		launched++
		go func() {
			r := g.attempt(actx, b, exp, payload)
			r.hedged = hedged
			results <- r
		}()
	}
	launch(false)

	var hedgeTimer <-chan time.Time
	if g.cfg.Hedge && next < len(cands) {
		if p95, ok := g.lat.p95(exp); ok {
			delay := p95
			if delay < g.cfg.HedgeMin {
				delay = g.cfg.HedgeMin
			}
			hedgeTimer = time.After(delay)
		}
	}

	var last fwdResult
	for launched > 0 {
		select {
		case res := <-results:
			launched--
			if !res.retry {
				if res.err == nil && res.status == http.StatusOK {
					if res.hedged {
						g.reg.Counter("gate.hedges.won").Inc()
					}
				}
				return res
			}
			g.reg.Counter("gate.retries", obs.L("backend", res.backend)).Inc()
			last = res
			if next < len(cands) && actx.Err() == nil {
				launch(false)
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(cands) && actx.Err() == nil {
				g.reg.Counter("gate.hedges.fired").Inc()
				logging.From(ctx).LogAttrs(ctx, slog.LevelDebug, "hedging request",
					slog.String("experiment", exp), slog.String("backend", cands[next].name))
				launch(true)
			}
		case <-ctx.Done():
			return fwdResult{err: ctx.Err()}
		}
	}
	if last.err == nil {
		last.err = fmt.Errorf("cluster: all %d candidate backends failed (last: %s %d)",
			len(cands), last.backend, last.status)
	}
	return last
}

// attempt performs one POST /v1/run against one backend and classifies the
// outcome. Connection errors, unreadable bodies and 5xx are retryable (the
// backend is dead, draining, or broken — a replica can serve the same
// bytes) and count against the backend's health; 429 and other 4xx are
// final and relayed verbatim, Retry-After included, so the backpressure
// contract survives the extra hop.
func (g *Gateway) attempt(ctx context.Context, b *backend, exp string, payload []byte) fwdResult {
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
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, b.base+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return fwdResult{backend: b.name, err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.RequestIDFrom(ctx); id != "" {
		hreq.Header.Set(server.RequestIDHeader, id)
	}
	start := time.Now()
	resp, err := g.http.Do(hreq)
	if err != nil {
		return g.failed(ctx, b, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return g.failed(ctx, b, err)
	}
	res := fwdResult{status: resp.StatusCode, header: resp.Header, body: body, backend: b.name}
	if resp.StatusCode >= 500 {
		g.pool.apply(b, forwardFailed, 0)
		res.retry = true
		return res
	}
	g.pool.apply(b, forwardOK, 0)
	if resp.StatusCode == http.StatusOK {
		g.lat.observe(exp, time.Since(start))
		g.reg.Counter("gate.forwarded", obs.L("backend", b.name)).Inc()
		g.reg.Histogram("gate.forward.us", obs.L("backend", b.name)).
			Observe(uint64(time.Since(start).Microseconds()))
	}
	return res
}

// failed classifies a forward that got no complete response. It is a
// retryable backend failure only if the parent request is still alive: a
// cancelled attempt (hedge loser, client gone) says nothing about the
// backend.
func (g *Gateway) failed(ctx context.Context, b *backend, err error) fwdResult {
	if ctx.Err() != nil {
		return fwdResult{backend: b.name, err: err}
	}
	g.pool.apply(b, forwardFailed, 0)
	return fwdResult{backend: b.name, retry: true, err: err}
}

// handleExperiments proxies GET /v1/experiments to the first healthy
// backend — every backend serves the same index.
func (g *Gateway) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, b := range g.pool.pick("experiments-index") {
		ctx := r.Context()
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/experiments", nil)
		if err != nil {
			continue
		}
		resp, err := g.http.Do(hreq)
		if err != nil {
			g.pool.apply(b, forwardFailed, 0)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set(BackendHeader, b.name)
		w.Write(body)
		return
	}
	writeError(w, r, http.StatusServiceUnavailable, errNoBackends.Error())
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if g.Draining() {
		writeError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	if g.pool.Healthy() == 0 {
		writeError(w, r, http.StatusServiceUnavailable, errNoBackends.Error())
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
		writeError(w, r, http.StatusBadRequest, err.Error())
	}
}

func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.reg.ExportTrace(w, nil)
}
