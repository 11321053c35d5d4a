package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
)

// stubDaemon is the smallest Daemon: one route that holds the drain gate
// until release is closed, counting and tracing every request.
type stubDaemon struct {
	reg     *obs.Registry
	gate    DrainGate
	started chan struct{}
	release chan struct{}
}

func (d *stubDaemon) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.gate.Enter() {
			WriteError(w, r, http.StatusServiceUnavailable, "draining")
			return
		}
		defer d.gate.Leave()
		sp := d.reg.StartRequestSpan(r.Context(), "stub.request")
		defer sp.End(0)
		d.reg.Counter("stub.requests").Inc()
		close(d.started)
		<-d.release
		io.WriteString(w, "done")
	})
}

func (d *stubDaemon) Shutdown(ctx context.Context) error {
	d.gate.Close()
	return d.gate.Wait(ctx)
}

func (d *stubDaemon) Obs() *obs.Registry { return d.reg }

// TestServeDrainsThenFlushes runs Serve with one request in flight and
// cancels its context: the request completes, both telemetry files are
// written and readable, and the log reads the drain sequence in order.
func TestServeDrainsThenFlushes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &stubDaemon{reg: obs.NewRegistry(), started: make(chan struct{}), release: make(chan struct{})}
	var logs bytes.Buffer // written only by Serve, read after it returns
	dir := t.TempDir()
	opts := ServeOptions{
		Log:          slog.New(slog.NewJSONHandler(&logs, nil)),
		DrainTimeout: 10 * time.Second,
		TraceOut:     filepath.Join(dir, "trace.json"),
		MetricsOut:   filepath.Join(dir, "metrics.json"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, d, opts) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{resp.StatusCode, string(body), err}
	}()
	select {
	case <-d.started:
	case r := <-replied:
		t.Fatalf("request answered before the drain: %+v", r)
	}
	cancel()
	for !d.gate.Closed() {
		time.Sleep(time.Millisecond)
	}
	close(d.release)

	if r := <-replied; r.err != nil || r.status != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request across the drain: %d %q %v, want 200 \"done\"", r.status, r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	var msgs []string
	dec := json.NewDecoder(&logs)
	for dec.More() {
		var line struct{ Msg string }
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, line.Msg)
	}
	if want := []string{"draining", "trace written", "metrics written", "drained, bye"}; !slices.Equal(msgs, want) {
		t.Fatalf("drain log %q, want %q", msgs, want)
	}
	tf, err := obs.ReadTraceFile(opts.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(tf.TraceEvents, func(ev obs.TraceEvent) bool { return ev.Name == "stub.request" }) {
		t.Fatal("trace file has no stub.request span")
	}
	snap, err := obs.ReadSnapshotFile(opts.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["stub.requests"] != 1 {
		t.Fatalf("metrics file counters %v, want stub.requests 1", snap.Counters)
	}
}

// TestServeReturnsServeError checks a listener that cannot serve surfaces
// its error instead of waiting for a signal.
func TestServeReturnsServeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	d := &stubDaemon{reg: obs.NewRegistry()}
	err = Serve(context.Background(), ln, d, ServeOptions{Log: logging.Discard()})
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve on a closed listener returned %v, want the accept error", err)
	}
}

// TestRequestScopeDisabledLogSkipsAttrs checks a daemon's access-line
// fields are computed only when the line is logged.
func TestRequestScopeDisabledLogSkipsAttrs(t *testing.T) {
	h := RequestScope(logging.Discard(), "request", func(*StatusRecorder) []slog.Attr {
		t.Error("access-line attrs computed for a disabled logger")
		return nil
	}, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}
