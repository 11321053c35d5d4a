package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
)

// The HTTP edge whisperd and whispergate share: the request-scope
// middleware, the drain gate, the method guard, the /v1/run body decode,
// the JSON error body, the /metrics and /traces mount, and the
// serve-and-drain loop each daemon's main runs.

// RequestScope is the request-ID + access-log middleware every route of
// both daemons runs under. The ID is adopted from (or minted into)
// X-Whisper-Request-Id, echoed on every response — error paths included —
// threaded through the context into spans, logs and backend hops, and
// closed out with one access line: msg, then method, path, status, bytes
// and dur_us, then the daemon's own attrs. attrs runs only when the line
// is logged, so a disabled logger costs nothing.
func RequestScope(log *slog.Logger, msg string, attrs func(rec *StatusRecorder) []slog.Attr, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := logging.WithRequestID(r.Context(), log, id)
		rec := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		if log := logging.From(ctx); log.Enabled(ctx, slog.LevelInfo) {
			log.LogAttrs(ctx, slog.LevelInfo, msg, append([]slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.Status),
				slog.Int64("bytes", rec.Bytes),
				slog.Int64("dur_us", time.Since(start).Microseconds()),
			}, attrs(rec)...)...)
		}
	})
}

// StatusRecorder captures the status and body size an inner handler wrote,
// for the access line.
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

// DrainGate admits work until it is closed and then waits for the admitted
// work to leave. whisperd gates each execution, the gateway each request.
type DrainGate struct {
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Enter admits one unit of work unless the gate is closed. The flag check
// and the registration share one lock, so Wait covers every unit admitted.
func (g *DrainGate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.wg.Add(1)
	return true
}

// Leave marks one admitted unit done.
func (g *DrainGate) Leave() { g.wg.Done() }

// Close refuses all later work; it may be called more than once.
func (g *DrainGate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

// Closed reports whether Close has been called.
func (g *DrainGate) Closed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// Wait blocks until every admitted unit has left, or returns ctx.Err() once
// ctx is done first.
func (g *DrainGate) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Only is the method guard: any other method than method gets 405, with
// Allow naming method and the JSON error "<method> only".
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, r, http.StatusMethodNotAllowed, method+" only")
			return
		}
		h(w, r)
	}
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
// body that runs past limit bytes. On failure it answers 413 for an
// oversized body or 400 for any other bad one, and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		WriteError(w, r, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", limit))
	default:
		WriteError(w, r, http.StatusBadRequest, "bad request: "+err.Error())
	}
	return false
}

// DecodeRun reads a POST /v1/run body into its normalized request. On
// failure it has answered (413 or 400) and returns false.
func DecodeRun(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var req Request
	if !DecodeBody(w, r, MaxRunBody, &req) {
		return Request{}, false
	}
	norm, err := req.Normalize()
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, err.Error())
		return Request{}, false
	}
	return norm, true
}

// MountTelemetry serves reg on mux: /metrics in the negotiated format
// (refresh first publishes the daemon's point-in-time gauges) and /traces
// as a Perfetto/Chrome trace, request spans included.
func MountTelemetry(mux *http.ServeMux, reg *obs.Registry, refresh func()) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		refresh()
		format, err := negotiateMetricsFormat(r)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, err.Error())
			return
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
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.ExportTrace(w, nil)
	})
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

// Daemon is what Serve runs: whisperd's Server or the cluster Gateway.
type Daemon interface {
	Handler() http.Handler
	Shutdown(ctx context.Context) error
	Obs() *obs.Registry
}

// ServeOptions are the serve-and-drain flags both daemons share.
type ServeOptions struct {
	Log          *slog.Logger
	DrainTimeout time.Duration // -drain-timeout
	TraceOut     string        // -trace-out
	MetricsOut   string        // -metrics-out
}

// Serve serves d on ln until ctx is done, then drains: it logs "draining",
// shuts d down (new work gets 503, admitted work finishes within
// DrainTimeout), closes the HTTP side, writes the trace and metrics files,
// and logs "drained, bye". It returns a serve error (ln failing before ctx
// is done) or a file write error.
func Serve(ctx context.Context, ln net.Listener, d Daemon, o ServeOptions) error {
	hs := &http.Server{Handler: d.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}

	o.Log.Info("draining", slog.Duration("timeout", o.DrainTimeout),
		slog.String("hint", "signal again to exit immediately"))
	drainCtx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	if err := d.Shutdown(drainCtx); err != nil {
		o.Log.Error("drain failed", slog.String("error", err.Error()))
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		o.Log.Error("http shutdown failed", slog.String("error", err.Error()))
	}
	if o.TraceOut != "" {
		if err := d.Obs().WriteTraceFile(o.TraceOut, nil); err != nil {
			return err
		}
		o.Log.Info("trace written", slog.String("path", o.TraceOut))
	}
	if o.MetricsOut != "" {
		if err := d.Obs().WriteMetricsFile(o.MetricsOut); err != nil {
			return err
		}
		o.Log.Info("metrics written", slog.String("path", o.MetricsOut))
	}
	o.Log.Info("drained, bye")
	return nil
}
