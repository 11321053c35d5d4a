package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/server"
)

// stubBackend is a scripted whisperd stand-in for routing-behaviour tests
// (the byte-identity tests use real server.Server backends instead). It
// serves a fixed /v1/run body and an experiment index, and can be told to
// answer cache hits, delay, fail with a status, report draining, or drop
// every connection.
type stubBackend struct {
	ts   *httptest.Server
	body []byte

	runs       atomic.Int64 // /v1/run requests seen
	delay      atomic.Int64 // ns to stall /v1/run before answering
	hit        atomic.Bool  // /v1/run answers X-Whisper-Cache: hit, not miss
	status     atomic.Int32 // non-zero: /v1/run and /v1/experiments reply this status
	retryAfter atomic.Int32 // seconds, sent with a 429 status
	draining   atomic.Bool  // /readyz reports draining
	dead       atomic.Bool  // every request's connection is closed unanswered
	cancelled  atomic.Bool  // a stalled /v1/run saw its context cancelled
	lastReqID  atomic.Value // X-Whisper-Request-Id of the last /v1/run
}

func newStubBackend(t *testing.T, body string) *stubBackend {
	t.Helper()
	b := &stubBackend{body: []byte(body)}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.dead.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		switch r.URL.Path {
		case "/v1/run":
			b.runs.Add(1)
			b.lastReqID.Store(r.Header.Get(server.RequestIDHeader))
			// Drain the body: the net/http server only detects a client
			// abort (a gateway whose own client left, which this stub
			// observes) once the request body has been consumed.
			io.Copy(io.Discard, r.Body)
			if d := time.Duration(b.delay.Load()); d > 0 {
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					b.cancelled.Store(true)
					return
				}
			}
			if b.fail(w) {
				return
			}
			cache := "miss"
			if b.hit.Load() {
				cache = "hit"
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(server.CacheHeader, cache)
			w.Write(b.body)
		case "/v1/experiments":
			if b.fail(w) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"experiments":["throughput"]}`)
		case "/readyz":
			ready := server.Readiness{Status: "ok"}
			status := http.StatusOK
			if b.draining.Load() {
				ready.Status, ready.Draining, status = "draining", true, http.StatusServiceUnavailable
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(ready)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func (b *stubBackend) addr() string { return strings.TrimPrefix(b.ts.URL, "http://") }

// fail writes the scripted failure status, if one is set, and reports
// whether it did.
func (b *stubBackend) fail(w http.ResponseWriter) bool {
	s := int(b.status.Load())
	if s == 0 {
		return false
	}
	if ra := b.retryAfter.Load(); ra > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(ra))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(s)
	json.NewEncoder(w).Encode(map[string]any{"error": "scripted failure", "status": s})
	return true
}

// newTestGateway builds (but does not Start) a gateway over the addrs with
// test-friendly timings, returning it and its HTTP front.
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // tests drive ProbeAll by hand
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func postRun(t *testing.T, url string, req server.Request) *http.Response {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sweepCells is a fast, hash-diverse workload: tiny throughput sweeps
// across distinct sizes and seeds, each a few milliseconds of simulation.
func sweepCells(n int) []server.Request {
	cells := make([]server.Request, n)
	for i := range cells {
		cells[i] = server.Request{
			Experiment:      "throughput",
			ThroughputBytes: 1 + i%4,
			Seed:            int64(1 + i/4),
		}
	}
	return cells
}

// directBytes computes the single-node reference: each cell executed
// in-process, envelopes concatenated in cell order.
func directBytes(t *testing.T, cells []server.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range cells {
		norm, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		body, err := server.Execute(context.Background(), norm, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(body)
	}
	return buf.Bytes()
}

// countingHandler wraps a real whisperd handler, counting /v1/run hits and
// optionally failing some of them: all runs past killAfter, or any run whose
// body contains failSubstr (a deterministic, content-keyed kill for tests
// that need to know exactly which cells die).
type countingHandler struct {
	h          http.Handler
	runs       atomic.Int64
	killAfter  atomic.Int64 // > 0: /v1/run replies 500 after this many served
	failSubstr string       // non-empty: /v1/run replies 500 when the body matches
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/run" {
		n := c.runs.Add(1)
		if ka := c.killAfter.Load(); ka > 0 && n > ka {
			http.Error(w, "backend killed mid-sweep", http.StatusInternalServerError)
			return
		}
		if c.failSubstr != "" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if bytes.Contains(body, []byte(c.failSubstr)) {
				http.Error(w, "scripted cell failure", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	c.h.ServeHTTP(w, r)
}

// startWhisperd brings up a real serving daemon for cluster tests.
func startWhisperd(t *testing.T, killAfter int64) (*countingHandler, string) {
	t.Helper()
	// MaxInflight/MaxQueue give enough admission headroom that concurrent
	// sweep cells are never 429ed (NumCPU can be 1 on CI runners).
	srv, err := server.New(server.Config{Parallel: 2, MaxInflight: 4, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	ch := &countingHandler{h: srv.Handler()}
	ch.killAfter.Store(killAfter)
	ts := httptest.NewServer(ch)
	t.Cleanup(ts.Close)
	return ch, strings.TrimPrefix(ts.URL, "http://")
}

// TestGatewaySweepByteIdenticalAcrossPoolSizes is the cluster soundness
// pin: the bytes /v1/sweep streams through a 3-backend gateway equal the
// bytes through a 1-backend gateway equal the bytes of in-process
// execution, cell for cell — scaling out changes wall-clock, never output.
func TestGatewaySweepByteIdenticalAcrossPoolSizes(t *testing.T) {
	cells := sweepCells(8)
	want := directBytes(t, cells)

	sweep := func(url string) ([]byte, *http.Response) {
		payload, err := json.Marshal(SweepRequest{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp
	}

	// Three real backends.
	counters := make([]*countingHandler, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		counters[i], addrs[i] = startWhisperd(t, 0)
	}
	_, gw3 := newTestGateway(t, Config{Backends: addrs})
	got3, resp := sweep(gw3.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("3-backend sweep: status %d: %s", resp.StatusCode, got3)
	}
	if ct := resp.Header.Get("Content-Type"); ct != sweepContentType {
		t.Fatalf("sweep Content-Type = %q", ct)
	}
	if n := resp.Header.Get(SweepCellsHeader); n != "8" {
		t.Fatalf("%s = %q, want 8", SweepCellsHeader, n)
	}
	if !bytes.Equal(got3, want) {
		t.Fatalf("3-backend sweep diverged from in-process execution:\n%d vs %d bytes", len(got3), len(want))
	}
	spread := 0
	for _, c := range counters {
		if c.runs.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("sweep used %d of 3 backends; ring routing is not spreading cells", spread)
	}

	// One real backend.
	_, addr1 := startWhisperd(t, 0)
	_, gw1 := newTestGateway(t, Config{Backends: []string{addr1}})
	got1, resp := sweep(gw1.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1-backend sweep: status %d", resp.StatusCode)
	}
	if !bytes.Equal(got1, want) {
		t.Fatal("1-backend sweep diverged from in-process execution")
	}
}

// TestGatewayRunByteIdenticalAndCached checks /v1/run through the gateway
// relays backend bytes and headers verbatim — including the cache-path
// header on a repeat hit — and adds exactly the backend attribution header.
func TestGatewayRunByteIdenticalAndCached(t *testing.T) {
	req := server.Request{Experiment: "throughput", ThroughputBytes: 4}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := server.Execute(context.Background(), norm, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startWhisperd(t, 0)
	_, gwts := newTestGateway(t, Config{Backends: []string{addr}})

	resp := postRun(t, gwts.URL, req)
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cold, want) {
		t.Fatalf("cold run: status %d, %d bytes (want %d)", resp.StatusCode, len(cold), len(want))
	}
	if resp.Header.Get(BackendHeader) != addr {
		t.Fatalf("%s = %q, want %q", BackendHeader, resp.Header.Get(BackendHeader), addr)
	}
	if resp.Header.Get(server.HashHeader) != norm.Hash() {
		t.Fatalf("hash header %q not relayed", resp.Header.Get(server.HashHeader))
	}

	resp = postRun(t, gwts.URL, req)
	hot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(hot, want) {
		t.Fatal("cached run bytes differ")
	}
	if resp.Header.Get(server.CacheHeader) != "hit" {
		t.Fatalf("repeat run cache header %q, want hit (affinity lost?)", resp.Header.Get(server.CacheHeader))
	}
}

// TestGatewaySweepSurvivesBackendDeathMidSweep kills one of three backends
// after it has served one cell: the remaining cells it owned must fail over
// to their ring successors and the streamed bytes must still match the
// single-node reference exactly.
func TestGatewaySweepSurvivesBackendDeathMidSweep(t *testing.T) {
	cells := sweepCells(12)
	want := directBytes(t, cells)

	handlers := make(map[string]*countingHandler, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		ch, addr := startWhisperd(t, 0)
		handlers[addr] = ch
		addrs[i] = addr
	}
	gw, gwts := newTestGateway(t, Config{Backends: addrs, EjectAfter: 2})

	// Kill the backend that is home to the most cells: ring assignment
	// depends on the ephemeral test ports, so picking by index could land
	// on a backend that owns one cell (or none) and never exercise the
	// death. Pigeonhole guarantees the busiest of 3 owns >= 4 of 12.
	homes := make(map[string]int, 3)
	for _, c := range cells {
		norm, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		homes[gw.pool.pick(norm.Hash())[0].name]++
	}
	victim := ""
	for addr, n := range homes {
		if victim == "" || n > homes[victim] {
			victim = addr
		}
	}
	killed := handlers[victim]
	killed.killAfter.Store(1)

	payload, err := json.Marshal(SweepRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gwts.URL+"/v1/sweep", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep with mid-flight backend death diverged from reference (%d vs %d bytes)",
			len(got), len(want))
	}
	if killed.runs.Load() < 2 {
		t.Fatalf("killed backend saw %d runs; the death was never exercised", killed.runs.Load())
	}
	retries := uint64(0)
	for k, v := range gw.Obs().Snapshot().Counters {
		if strings.HasPrefix(k, "gate.retries{") {
			retries += v
		}
	}
	if retries == 0 {
		t.Fatal("no gate.retries recorded; failover path not taken")
	}
}

// TestGatewaySweepReportsCellFailureInStream checks the committed-stream
// failure contract: when every replica fails a cell, the stream carries the
// envelopes up to that cell followed by a JSON error object naming it.
func TestGatewaySweepReportsCellFailureInStream(t *testing.T) {
	cells := sweepCells(6) // cells 0-3 carry seed 1, cells 4-5 seed 2
	ch, addr := startWhisperd(t, 0)
	ch.failSubstr = `"seed":2` // the sole backend fails exactly cells 4 and 5
	_, gwts := newTestGateway(t, Config{Backends: []string{addr}})

	payload, err := json.Marshal(SweepRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gwts.URL+"/v1/sweep", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d (the stream is committed before cells run)", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	sawEnvelopes, sawError := 0, false
	for dec.More() {
		var probe struct {
			Error string `json:"error"`
			Cell  *int   `json:"cell"`
			Hash  string `json:"hash"`
		}
		if err := dec.Decode(&probe); err != nil {
			t.Fatalf("stream not a sequence of JSON documents: %v", err)
		}
		switch {
		case probe.Error != "":
			sawError = true
			if probe.Cell == nil || *probe.Cell != sawEnvelopes {
				t.Fatalf("error envelope names cell %v, want %d", probe.Cell, sawEnvelopes)
			}
		case sawError:
			t.Fatal("stream continued past the error envelope")
		default:
			sawEnvelopes++
		}
	}
	if sawEnvelopes != 4 || !sawError {
		t.Fatalf("stream had %d envelopes, error=%v; want the 4 seed-1 envelopes then the error", sawEnvelopes, sawError)
	}
	if ch.runs.Load() < 5 {
		t.Fatalf("backend saw %d runs; the failing cell was never attempted", ch.runs.Load())
	}
}

// TestGatewaySweepStreamsEachCell checks the gateway sends each finished
// cell while later cells still run. The backend holds cell 1's answer until
// the client has read cell 0's envelope from the stream, so a gateway that
// buffers the stream until the sweep ends never delivers cell 0, and the
// request fails on its 5 s deadline.
func TestGatewaySweepStreamsEachCell(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var req server.Request
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if r.URL.Path != "/v1/run" || err != nil {
			http.NotFound(w, r)
			return
		}
		if req.Seed == 2 { // cell 1
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"hash\":\"seed-%d\"}\n", req.Seed)
	}))
	t.Cleanup(backend.Close)
	_, gwts := newTestGateway(t, Config{Backends: []string{strings.TrimPrefix(backend.URL, "http://")}})
	var once sync.Once
	releaseCell1 := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releaseCell1) // before the servers close, whatever the outcome

	payload, err := json.Marshal(SweepRequest{Cells: []server.Request{
		{Experiment: "table2", Seed: 1},
		{Experiment: "table2", Seed: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, gwts.URL+"/v1/sweep", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("sweep response not started while cell 1 ran: %v", err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var env struct{ Hash string }
	if err := dec.Decode(&env); err != nil || env.Hash != "seed-1" {
		t.Fatalf("cell 0 not streamed while cell 1 ran: %+v, %v", env, err)
	}
	releaseCell1()
	if err := dec.Decode(&env); err != nil || env.Hash != "seed-2" {
		t.Fatalf("cell 1 after its release: %+v, %v", env, err)
	}
}

// orderedStubs builds n stub backends and returns them sorted into the
// ring's preference order for key, so tests can script "home" and
// "successor" deterministically.
func orderedStubs(t *testing.T, gw *Gateway, key string, stubs map[string]*stubBackend) []*stubBackend {
	t.Helper()
	cands := gw.pool.pick(key)
	if len(cands) != len(stubs) {
		t.Fatalf("pick returned %d candidates, want %d", len(cands), len(stubs))
	}
	out := make([]*stubBackend, len(cands))
	for i, c := range cands {
		s, ok := stubs[c.name]
		if !ok {
			t.Fatalf("unknown candidate %q", c.name)
		}
		out[i] = s
	}
	return out
}

// TestGatewayRetriesConnectionErrorOnNextReplica checks a dead home
// backend's requests land on the ring successor, and the traffic-path
// failure ejects the dead member without waiting for a probe round.
func TestGatewayRetriesConnectionErrorOnNextReplica(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	b := newStubBackend(t, `{"hash":"b"}`)
	gw, gwts := newTestGateway(t, Config{
		Backends:   []string{a.addr(), b.addr()},
		EjectAfter: 1,
	})
	req := server.Request{Experiment: "throughput", ThroughputBytes: 4}
	norm, _ := req.Normalize()
	order := orderedStubs(t, gw, norm.Hash(), map[string]*stubBackend{a.addr(): a, b.addr(): b})
	home, succ := order[0], order[1]
	home.ts.Close() // connection refused from here on

	resp := postRun(t, gwts.URL, req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(BackendHeader); got != succ.addr() {
		t.Fatalf("served by %q, want failover to %q", got, succ.addr())
	}
	if gw.pool.Healthy() != 1 {
		t.Fatal("dead backend not ejected by the traffic-path failure")
	}
	if succ.runs.Load() != 1 {
		t.Fatalf("successor saw %d runs, want 1", succ.runs.Load())
	}

	// Next request: the ejected home is filtered at pick time — no
	// connection attempt, no retry counter growth.
	resp = postRun(t, gwts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || succ.runs.Load() != 2 {
		t.Fatalf("post-ejection run: status %d, successor runs %d", resp.StatusCode, succ.runs.Load())
	}
}

// TestGateway429IsFinalWithRetryAfter checks backpressure passes through
// untouched: a 429 from the home backend is relayed with its Retry-After
// and is never retried on another replica — the home's queue signal must
// not be laundered into a cold run elsewhere.
func TestGateway429IsFinalWithRetryAfter(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	b := newStubBackend(t, `{"hash":"b"}`)
	gw, gwts := newTestGateway(t, Config{Backends: []string{a.addr(), b.addr()}})
	req := server.Request{Experiment: "throughput", ThroughputBytes: 4}
	norm, _ := req.Normalize()
	order := orderedStubs(t, gw, norm.Hash(), map[string]*stubBackend{a.addr(): a, b.addr(): b})
	home, other := order[0], order[1]
	home.status.Store(http.StatusTooManyRequests)
	home.retryAfter.Store(7)

	resp := postRun(t, gwts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want 7", resp.Header.Get("Retry-After"))
	}
	if other.runs.Load() != 0 {
		t.Fatal("429 was retried on another replica")
	}
}

// TestGatewayNeverDuplicatesSlowRequest checks a slow but alive home
// backend is waited for: the request runs once, on its home, and its ring
// successor never sees it, even with the deprecated Config field that once
// sent a duplicate there set.
func TestGatewayNeverDuplicatesSlowRequest(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	b := newStubBackend(t, `{"hash":"b"}`)
	gw, gwts := newTestGateway(t, Config{
		Backends: []string{a.addr(), b.addr()},
		Hedge:    true,
	})
	req := server.Request{Experiment: "throughput", ThroughputBytes: 4}
	norm, _ := req.Normalize()
	order := orderedStubs(t, gw, norm.Hash(), map[string]*stubBackend{a.addr(): a, b.addr(): b})
	home, succ := order[0], order[1]

	// Eight fast answers first, so the slow one stands far outside the
	// experiment's observed latencies.
	for i := 0; i < 8; i++ {
		resp := postRun(t, gwts.URL, req)
		resp.Body.Close()
	}
	home.delay.Store(int64(200 * time.Millisecond))
	resp := postRun(t, gwts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(BackendHeader); got != home.addr() {
		t.Fatalf("served by %q, want the slow home %q", got, home.addr())
	}
	if n := succ.runs.Load(); n != 0 {
		t.Fatalf("successor saw %d runs, want 0", n)
	}
}

// TestGatewayRoutesAroundSlowReplica checks the slow-replica rule end to
// end: once a backend's cache hits run 40 ms against its peers' sub-
// millisecond ones, its key is served by the ring successor; the slow
// backend still sees about one request per ProbeInterval, which re-measures
// it; and once it is fast again the key returns home within one interval.
func TestGatewayRoutesAroundSlowReplica(t *testing.T) {
	const interval = 200 * time.Millisecond
	stubs := map[string]*stubBackend{}
	var addrs []string
	for i := 0; i < 3; i++ {
		s := newStubBackend(t, fmt.Sprintf(`{"hash":"%d"}`, i))
		s.hit.Store(true)
		stubs[s.addr()] = s
		addrs = append(addrs, s.addr())
	}
	gw, gwts := newTestGateway(t, Config{Backends: addrs, ProbeInterval: interval})

	// One key homed on each backend.
	keys := map[string]server.Request{}
	for seed := int64(1); len(keys) < len(stubs) && seed < 1000; seed++ {
		req := server.Request{Experiment: "throughput", ThroughputBytes: 4, Seed: seed}
		norm, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if home := gw.pool.pick(norm.Hash())[0].name; keys[home].Experiment == "" {
			keys[home] = req
		}
	}
	if len(keys) < len(stubs) {
		t.Fatalf("found keys homed on %d of %d backends", len(keys), len(stubs))
	}
	slowKey := keys[addrs[0]]
	norm, _ := slowKey.Normalize()
	order := orderedStubs(t, gw, norm.Hash(), stubs)
	home, succ := order[0], order[1]
	run := func(req server.Request) string {
		t.Helper()
		resp := postRun(t, gwts.URL, req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get(BackendHeader)
	}

	for _, s := range order[1:] {
		for i := 0; i < hitWindow; i++ {
			run(keys[s.addr()])
		}
	}
	home.delay.Store(int64(40 * time.Millisecond))
	for i := 0; i < hitWindow; i++ {
		if got := run(slowKey); got != home.addr() {
			t.Fatalf("hit %d served by %q before the window filled, want the home %q", i, got, home.addr())
		}
	}
	if got := run(slowKey); got != succ.addr() {
		t.Fatalf("after four 40 ms hits the key was served by %q, want the successor %q", got, succ.addr())
	}
	if n := gw.Obs().Snapshot().Counters[`gate.slow.rerouted{backend=`+home.addr()+`}`]; n == 0 {
		t.Fatal("gate.slow.rerouted not counted")
	}

	// Demoted: only the re-measure after each lapse reaches the home.
	before, start := home.runs.Load(), time.Now()
	for time.Since(start) < 5*interval {
		run(slowKey)
		time.Sleep(5 * time.Millisecond)
	}
	runs, limit := home.runs.Load()-before, int64(time.Since(start)/interval)+1
	if runs < 1 || runs > limit {
		t.Fatalf("slow home saw %d runs in %v, want 1 to %d (one re-measure per interval)",
			runs, time.Since(start).Round(time.Millisecond), limit)
	}

	// Fast again: the next re-measure clears the flag.
	home.delay.Store(0)
	start = time.Now()
	for run(slowKey) != home.addr() {
		if time.Since(start) > interval+100*time.Millisecond {
			t.Fatalf("key still away from its fast home after %v", time.Since(start).Round(time.Millisecond))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if got := run(slowKey); got != home.addr() {
			t.Fatalf("served by %q after the home recovered, want %q", got, home.addr())
		}
	}
}

// TestGatewayExperimentsProxyCountsFailuresAndDrains checks the index proxy
// shares /v1/run's health accounting and drain gate: a 500 ejects its
// backend at EjectAfter 1, a 200 clears a suspect one, and after Shutdown
// the gateway answers 503 itself.
func TestGatewayExperimentsProxyCountsFailuresAndDrains(t *testing.T) {
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url + "/v1/experiments")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	broken := newStubBackend(t, `{}`)
	broken.status.Store(http.StatusInternalServerError)
	gw, gwts := newTestGateway(t, Config{Backends: []string{broken.addr()}, EjectAfter: 1})
	if status, body := get(gwts.URL); status != http.StatusBadGateway {
		t.Fatalf("index from a backend answering 500: status %d (%s), want 502", status, body)
	}
	if gw.pool.Healthy() != 0 {
		t.Fatal("a 500 on /v1/experiments did not eject the backend at EjectAfter 1")
	}
	if n := gw.Obs().Snapshot().Counters[`gate.ejections{backend=`+broken.addr()+`}`]; n != 1 {
		t.Fatalf("gate.ejections = %v, want 1", n)
	}

	flaky := newStubBackend(t, `{}`)
	flaky.status.Store(http.StatusInternalServerError)
	gw, gwts = newTestGateway(t, Config{Backends: []string{flaky.addr()}, EjectAfter: 2})
	get(gwts.URL)
	b := gw.pool.lookup(flaky.addr())
	state := func() health {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.state
	}
	if got := state(); got != suspect {
		t.Fatalf("after one 500: %v, want suspect", got)
	}
	flaky.status.Store(0)
	if status, body := get(gwts.URL); status != http.StatusOK || !strings.Contains(body, "throughput") {
		t.Fatalf("index: status %d (%s)", status, body)
	}
	if got := state(); got != healthy {
		t.Fatalf("after a 200: %v, want healthy", got)
	}

	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, body := get(gwts.URL); status != http.StatusServiceUnavailable || !strings.Contains(body, "gateway draining") {
		t.Fatalf("index after Shutdown: status %d (%s), want 503 gateway draining", status, body)
	}
}

// TestGatewayClientGoneIsNotABackendFailure checks a client that leaves
// mid-forward costs the backend it was waiting on nothing: the forward is
// cancelled, not retried elsewhere, and not counted against the backend's
// health, even at EjectAfter 1.
func TestGatewayClientGoneIsNotABackendFailure(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	b := newStubBackend(t, `{"hash":"b"}`)
	gw, gwts := newTestGateway(t, Config{
		Backends:   []string{a.addr(), b.addr()},
		EjectAfter: 1,
	})
	req := server.Request{Experiment: "throughput", ThroughputBytes: 4}
	norm, _ := req.Normalize()
	order := orderedStubs(t, gw, norm.Hash(), map[string]*stubBackend{a.addr(): a, b.addr(): b})
	home, succ := order[0], order[1]
	home.delay.Store(int64(2 * time.Second))

	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, gwts.URL+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(hreq); err == nil {
		resp.Body.Close()
		t.Fatalf("request outlived its client: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Second)
	for !home.cancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the home backend's forward was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	gwts.Close() // waits for the gateway's handler to return

	if n := succ.runs.Load(); n != 0 {
		t.Fatalf("successor saw %d runs, want 0", n)
	}
	if n := gw.pool.Healthy(); n != 2 {
		t.Fatalf("%d of 2 backends routable after the client left", n)
	}
	for k := range gw.Obs().Snapshot().Counters {
		if strings.HasPrefix(k, "gate.retries") || strings.HasPrefix(k, "gate.ejections") {
			t.Fatalf("counter %s recorded for a client that left", k)
		}
	}
}

// TestGatewayDrainingBackendNotRouted checks a backend announcing drain via
// /readyz stops receiving new work after the next probe round.
func TestGatewayDrainingBackendNotRouted(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	b := newStubBackend(t, `{"hash":"b"}`)
	gw, gwts := newTestGateway(t, Config{Backends: []string{a.addr(), b.addr()}})
	a.draining.Store(true)
	gw.pool.ProbeAll()

	for i := 0; i < 8; i++ {
		resp := postRun(t, gwts.URL, server.Request{
			Experiment: "throughput", ThroughputBytes: 1 + i%4, Seed: int64(1 + i/4),
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}
	if a.runs.Load() != 0 {
		t.Fatalf("draining backend served %d runs, want 0", a.runs.Load())
	}
	if b.runs.Load() != 8 {
		t.Fatalf("surviving backend served %d runs, want 8", b.runs.Load())
	}
}

// TestGatewayBadRequestNeverCostsABackendHop checks malformed and invalid
// requests are rejected at the gateway with the backend untouched.
func TestGatewayBadRequestNeverCostsABackendHop(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	_, gwts := newTestGateway(t, Config{Backends: []string{a.addr()}})

	tooManyCells := `{"cells":[` + strings.Repeat(`{"experiment":"table2"},`, maxSweepCells) + `{"experiment":"table2"}]}`
	for _, c := range []struct {
		name, path, body string
		want             int
		msg              string // substring the error must carry
	}{
		{"not json", "/v1/run", `{not json`, http.StatusBadRequest, "bad request"},
		{"unknown experiment", "/v1/run", `{"experiment":"no-such-experiment"}`, http.StatusBadRequest, "unknown experiment"},
		{"unknown field", "/v1/run", `{"unknown_field":1}`, http.StatusBadRequest, "unknown field"},
		{"over-bound size", "/v1/run", `{"experiment":"throughput","throughput_bytes":1073741824}`, http.StatusBadRequest, "throughput_bytes"},
		{"oversized run body", "/v1/run", `{"experiment":"leak","secret":"` + strings.Repeat("s", server.MaxRunBody) + `"}`,
			http.StatusRequestEntityTooLarge, "request body over"},
		{"empty sweep", "/v1/sweep", `{"cells":[]}`, http.StatusBadRequest, "empty sweep"},
		{"too many cells", "/v1/sweep", tooManyCells, http.StatusBadRequest, "4097 cells (max 4096)"},
		{"bad cell 1", "/v1/sweep", `{"cells":[{"experiment":"table2"},{"experiment":"tableX"}]}`, http.StatusBadRequest, "cell 1: "},
		{"over-bound cell", "/v1/sweep", `{"cells":[{"experiment":"table2"},{"experiment":"table3"},{"experiment":"kaslr","kaslr_reps":65}]}`,
			http.StatusBadRequest, "cell 2: server: kaslr_reps 65"},
		{"oversized sweep body", "/v1/sweep", `{"cells":[{"experiment":"leak","secret":"` + strings.Repeat("s", maxSweepBody) + `"}]}`,
			http.StatusRequestEntityTooLarge, "request body over"},
	} {
		resp, err := http.Post(gwts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding the error body: %v", c.name, err)
		}
		if resp.StatusCode != c.want || !strings.Contains(e.Error, c.msg) {
			t.Errorf("%s: %d %q, want %d and an error naming %q", c.name, resp.StatusCode, e.Error, c.want, c.msg)
		}
	}
	if a.runs.Load() != 0 {
		t.Fatalf("invalid requests reached the backend %d times", a.runs.Load())
	}
}

// TestGatewayRequestIDPropagation checks one correlation key rides the whole
// chain: client → gateway response header → backend request header.
func TestGatewayRequestIDPropagation(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	_, gwts := newTestGateway(t, Config{Backends: []string{a.addr()}})

	payload, _ := json.Marshal(server.Request{Experiment: "throughput", ThroughputBytes: 4})
	hreq, err := http.NewRequest(http.MethodPost, gwts.URL+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	const id = "gate-test-req-1"
	hreq.Header.Set(server.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.RequestIDHeader); got != id {
		t.Fatalf("gateway echoed request ID %q, want %q", got, id)
	}
	if got, _ := a.lastReqID.Load().(string); got != id {
		t.Fatalf("backend received request ID %q, want %q", got, id)
	}
}

// TestGatewayReadinessAndDrain walks the gateway's own lifecycle surface:
// ready with healthy backends, not ready with none, draining after
// Shutdown, and 503 for work submitted mid-drain.
func TestGatewayReadinessAndDrain(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	gw, gwts := newTestGateway(t, Config{Backends: []string{a.addr()}, EjectAfter: 1})
	gw.Start()

	getReady := func() (int, GateReadiness) {
		resp, err := http.Get(gwts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc GateReadiness
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}

	status, doc := getReady()
	if status != http.StatusOK || doc.Status != "ok" || doc.BackendsHealthy != 1 || doc.BackendsTotal != 1 {
		t.Fatalf("ready: %d %+v", status, doc)
	}

	a.ts.Close()
	gw.pool.ProbeAll()
	status, doc = getReady()
	if status != http.StatusServiceUnavailable || doc.Status != "no_backends" {
		t.Fatalf("no backends: %d %+v", status, doc)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, doc = getReady()
	if status != http.StatusServiceUnavailable || doc.Status != "draining" || !doc.Draining {
		t.Fatalf("draining: %d %+v", status, doc)
	}
	resp := postRun(t, gwts.URL, server.Request{Experiment: "throughput", ThroughputBytes: 4})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: status %d, want 503", resp.StatusCode)
	}
}

// TestGatewayShutdownBeforeStartAndTwice checks Shutdown neither waits for
// a probe loop that Start never launched nor panics when called again.
func TestGatewayShutdownBeforeStartAndTwice(t *testing.T) {
	a := newStubBackend(t, `{"hash":"a"}`)
	gw, _ := newTestGateway(t, Config{Backends: []string{a.addr()}})
	shutdown := func(which string) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panicked: %v", p)
				}
			}()
			done <- gw.Shutdown(context.Background())
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s Shutdown: %v", which, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s Shutdown still blocked after 2 s", which)
		}
	}
	shutdown("first")
	shutdown("second")
	if !gw.Draining() {
		t.Fatal("gateway not draining after Shutdown")
	}
}

// TestGatewayExperimentsProxy checks the index passes through from a
// healthy backend.
func TestGatewayExperimentsProxy(t *testing.T) {
	_, addr := startWhisperd(t, 0)
	_, gwts := newTestGateway(t, Config{Backends: []string{addr}})
	resp, err := http.Get(gwts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Experiments) == 0 {
		t.Fatal("empty experiment index through the gateway")
	}
}
