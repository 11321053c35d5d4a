package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/experiments"
	"whisper/internal/obs"
)

// post sends one request to the handler and returns status, body, and the
// X-Whisper-Cache header. It is called from helper goroutines, so failures
// are reported with Error (valid off the test goroutine), not Fatal.
func post(t *testing.T, url string, req Request) (int, []byte, string) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return -1, nil, ""
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Error(err)
		return -1, nil, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return -1, nil, ""
	}
	return resp.StatusCode, body, resp.Header.Get("X-Whisper-Cache")
}

// TestServedBytesIdenticalToDirect is the serving soundness pin: the body a
// daemon serves — cold, from cache, and via a coalesced burst — is
// byte-identical to the same experiment run directly through
// internal/experiments, and direct runs agree at every parallelism.
func TestServedBytesIdenticalToDirect(t *testing.T) {
	req := Request{Experiment: "throughput", ThroughputBytes: 4}

	direct1, err := Execute(context.Background(), req, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct4, err := Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct1, direct4) {
		t.Fatal("direct execution differs between -parallel 1 and 4")
	}

	// The envelope's rendered text must be the exact sweep rendering the CLI
	// (cmd/tetbench, via the same registry) prints.
	var env Result
	if err := json.Unmarshal(direct1, &env); err != nil {
		t.Fatal(err)
	}
	sr, err := experiments.RunSweep(experiments.Serial(), "throughput",
		experiments.SweepParams{Seed: env.Request.Seed, ThroughputBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if env.Rendered != sr.Rendered {
		t.Fatalf("envelope rendering diverged from direct RunSweep:\n%q\n%q", env.Rendered, sr.Rendered)
	}

	srv, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, cold, path := post(t, ts.URL, req)
	if status != http.StatusOK || path != cacheMiss {
		t.Fatalf("cold: status %d, cache %q", status, path)
	}
	if !bytes.Equal(cold, direct1) {
		t.Fatalf("cold body differs from direct execution:\n%s\n---\n%s", cold, direct1)
	}
	status, hot, path := post(t, ts.URL, req)
	if status != http.StatusOK || path != cacheHit {
		t.Fatalf("cached: status %d, cache %q", status, path)
	}
	if !bytes.Equal(hot, direct1) {
		t.Fatal("cached body differs from direct execution")
	}

	// Concurrent burst on a fresh (cold) server: whatever mix of miss /
	// coalesced / hit each caller lands on, every body must be the same
	// canonical bytes.
	srv2, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	const burst = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, burst)
	paths := make([]string, burst)
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, path := post(t, ts2.URL, req)
			if status != http.StatusOK {
				t.Errorf("burst %d: status %d", i, status)
			}
			bodies[i], paths[i] = body, path
		}()
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(bodies[i], direct1) {
			t.Fatalf("burst body %d (cache %q) differs from direct execution", i, paths[i])
		}
	}
}

// stubServer builds a Server whose execution is replaced by run, plus the
// registry it reports into.
func stubServer(t *testing.T, cfg Config, run func(ctx context.Context, req Request) ([]byte, error)) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.run = run
	return srv, reg
}

// TestCoalescedBurstExecutesOnce deterministically pins the coalescing
// contract: one execution serves a whole burst of identical requests.
func TestCoalescedBurstExecutesOnce(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	srv, reg := stubServer(t, Config{}, func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		close(started)
		<-release
		return []byte(`{"stub":true}`), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := Request{Experiment: "table2"}
	const followers = 4
	var wg sync.WaitGroup
	statuses := make([]string, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, statuses[0] = post(t, ts.URL, req)
	}()
	<-started // leader is executing; the flight entry is registered
	for i := 1; i <= followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, statuses[i] = post(t, ts.URL, req)
		}()
	}
	// Wait until every follower's request is counted server-side, then let
	// the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.requests", obs.L("experiment", "table2")).Value() < followers+1 {
		if time.Now().After(deadline) {
			t.Fatal("followers never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let them pass the cache check into the flight
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("execution ran %d times for one burst, want 1", got)
	}
	var miss, coalesced int
	for _, s := range statuses {
		switch s {
		case cacheMiss:
			miss++
		case cacheCoalesced:
			coalesced++
		}
	}
	if miss != 1 || coalesced != followers {
		t.Fatalf("cache paths = %v, want 1 miss + %d coalesced", statuses, followers)
	}
}

// TestFollowersSurviveLeaderGivingUp pins that a coalescing leader whose
// client gives up while queued fails alone. The only execution slot is held
// by another request, so the leader waits in the queue with two followers
// coalesced onto it; cancelling the leader must leave both followers with
// the result once the slot frees, whether each leads a new run or joins the
// other's.
func TestFollowersSurviveLeaderGivingUp(t *testing.T) {
	blockerIn := make(chan struct{})
	release := make(chan struct{})
	srv, reg := stubServer(t, Config{MaxInflight: 1, MaxQueue: 4}, func(ctx context.Context, req Request) ([]byte, error) {
		if req.Experiment == "table3" {
			close(blockerIn)
			<-release
			return []byte(`{"blocker":true}`), nil
		}
		return []byte(`{"stub":true}`), nil
	})
	type outcome struct {
		body []byte
		err  error
	}
	call := func(ctx context.Context, experiment string) <-chan outcome {
		norm, err := Request{Experiment: experiment}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		out := make(chan outcome, 1)
		go func() {
			body, _, err := srv.result(ctx, norm, norm.Hash())
			out <- outcome{body, err}
		}()
		return out
	}
	wait := func(who string, out <-chan outcome) outcome {
		t.Helper()
		select {
		case o := <-out:
			return o
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked after 5s", who)
			return outcome{}
		}
	}

	blocker := call(context.Background(), "table3")
	<-blockerIn
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := call(leaderCtx, "table2")
	deadline := time.Now().Add(5 * time.Second)
	for _, waiting := srv.queue.depth(); waiting != 1; _, waiting = srv.queue.depth() {
		if time.Now().After(deadline) {
			t.Fatal("leader never queued")
		}
		time.Sleep(time.Millisecond)
	}
	followers := []<-chan outcome{call(context.Background(), "table2"), call(context.Background(), "table2")}
	time.Sleep(20 * time.Millisecond) // let the followers block on the leader's flight

	cancelLeader()
	if o := wait("leader", leader); !errors.Is(o.err, context.Canceled) {
		t.Fatalf("leader got %v, want its own context.Canceled", o.err)
	}
	close(release)
	for i, f := range followers {
		if o := wait(fmt.Sprintf("follower %d", i), f); o.err != nil || string(o.body) != `{"stub":true}` {
			t.Errorf("follower %d got %q, %v; want the result", i, o.body, o.err)
		}
	}
	if o := wait("blocker", blocker); o.err != nil {
		t.Fatalf("blocker: %v", o.err)
	}
	if got := reg.Counter("server.queue.abandoned").Value(); got != 1 {
		t.Errorf("server.queue.abandoned = %d, want 1", got)
	}
}

// TestBackpressure429 checks the bounded queue degrades into an honest 429
// with Retry-After once slots and waiting spots are exhausted.
func TestBackpressure429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, _ := stubServer(t, Config{MaxInflight: 1, MaxQueue: 0}, func(ctx context.Context, req Request) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return []byte("{}"), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Release the leader before ts.Close waits on its request.
	leaderDone := make(chan struct{})
	defer func() { close(release); <-leaderDone }()

	go func() {
		defer close(leaderDone)
		post(t, ts.URL, Request{Experiment: "table2"})
	}()
	<-started

	payload, _ := json.Marshal(Request{Experiment: "table3"})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestShutdownDrainsInflight is the graceful-drain acceptance pin: with
// requests in flight, Shutdown completes every one of them, refuses new
// work, leaks no goroutines, and leaves the registry readable for the final
// metrics flush.
func TestShutdownDrainsInflight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var inflight atomic.Int64
	srv, reg := stubServer(t, Config{MaxInflight: 4}, func(ctx context.Context, req Request) ([]byte, error) {
		inflight.Add(1)
		defer inflight.Add(-1)
		select {
		case <-time.After(150 * time.Millisecond):
			return []byte(fmt.Sprintf(`{"req":%q}`, req.Experiment)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	exps := []string{"table2", "table3", "fig4"}
	statuses := make([]int, len(exps))
	bodies := make([][]byte, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], bodies[i], _ = post(t, ts.URL, Request{Experiment: e})
		}()
	}
	for inflight.Load() < int64(len(exps)) {
		time.Sleep(time.Millisecond)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight request %d finished %d during drain, want 200", i, status)
		}
		if !strings.Contains(string(bodies[i]), exps[i]) {
			t.Errorf("request %d body = %q", i, bodies[i])
		}
	}

	// New work is refused while (and after) draining.
	status, _, _ := post(t, ts.URL, Request{Experiment: "noise"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503", status)
	}

	// The registry stays readable for the final flush and records the drain.
	snap := reg.Snapshot()
	if snap.Gauges["server.draining"] != 1 {
		t.Fatal("drain not recorded in metrics")
	}
	if snap.Counters[`server.responses{cache=miss,experiment=table2}`] == 0 &&
		snap.Counters[`server.responses{cache=miss,experiment=table3}`] == 0 {
		t.Fatalf("drained executions missing from metrics: %v", snap.Counters)
	}

	// No goroutine may outlive the drain (the HTTP test server keeps a few
	// idle ones; poll until we are back near the baseline).
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d baseline, %d after drain\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDeadlineCancelsExecutions checks the other drain arm: when the
// drain context expires, in-flight executions are cancelled through their
// context and Shutdown still waits for them to unwind.
func TestShutdownDeadlineCancelsExecutions(t *testing.T) {
	started := make(chan struct{})
	srv, _ := stubServer(t, Config{}, func(ctx context.Context, req Request) ([]byte, error) {
		close(started)
		<-ctx.Done() // only a drain cancellation can end this execution
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL, Request{Experiment: "table2"})
		done <- status
	}()
	<-started

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err == nil {
		t.Fatal("Shutdown reported success although the drain deadline expired")
	}
	select {
	case status := <-done:
		if status != http.StatusServiceUnavailable {
			t.Fatalf("cancelled request got %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never completed")
	}
}

// TestRequestTimeout checks the per-request deadline cancels one execution
// without touching the server.
func TestRequestTimeout(t *testing.T) {
	srv, _ := stubServer(t, Config{RequestTimeout: 20 * time.Millisecond}, func(ctx context.Context, req Request) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, _, _ := post(t, ts.URL, Request{Experiment: "table2"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request got %d, want 503", status)
	}
}

// TestPanickingRunServed500 checks a panic in execution reaches the client
// as a JSON 500, is counted once, and leaves the server serving.
func TestPanickingRunServed500(t *testing.T) {
	var runs atomic.Int64
	srv, reg := stubServer(t, Config{}, func(ctx context.Context, req Request) ([]byte, error) {
		if runs.Add(1) == 1 {
			panic("boom")
		}
		return []byte(`{"stub":true}`), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body, _ := post(t, ts.URL, Request{Experiment: "table2"})
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("panicked: boom")) {
		t.Fatalf("panicking run got %d %s, want a 500 naming the panic", status, body)
	}
	if got := reg.Counter("server.panics").Value(); got != 1 {
		t.Fatalf("server.panics = %d, want 1", got)
	}
	if status, _, _ := post(t, ts.URL, Request{Experiment: "table2"}); status != http.StatusOK {
		t.Fatalf("run after the panic got %d, want 200", status)
	}
}

// TestBadRequests checks the 4xx surface: every bad request is answered
// before an execution starts.
func TestBadRequests(t *testing.T) {
	var runs atomic.Int32
	srv, _ := stubServer(t, Config{}, func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return []byte("{}"), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct {
		name, method, body string
		want               int
	}{
		{"unknown experiment", http.MethodPost, `{"experiment":"unknown"}`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"experiment":"table2","bogus":1}`, http.StatusBadRequest},
		{"over-bound size", http.MethodPost, `{"experiment":"throughput","throughput_bytes":1073741824}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, `{"experiment":"leak","secret":"` + strings.Repeat("s", MaxRunBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, ts.URL+"/v1/run", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: got %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("bad requests started %d executions", n)
	}
}

// TestIndexMetricsTraces smoke-checks the read-only endpoints.
func TestIndexMetricsTraces(t *testing.T) {
	srv, _ := stubServer(t, Config{}, func(ctx context.Context, req Request) ([]byte, error) {
		return []byte("{}"), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var idx struct {
		Experiments []string `json:"experiments"`
		Attacks     []string `json:"attacks"`
	}
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(idx.Experiments) == 0 || len(idx.Attacks) == 0 {
		t.Fatalf("index empty: %+v", idx)
	}

	post(t, ts.URL, Request{Experiment: "table2"})
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters[`server.requests{experiment=table2}`] != 1 {
		t.Fatalf("request not counted: %v", snap.Counters)
	}
	if _, ok := snap.Gauges[`server.machines.gets{pool=sweep}`]; !ok {
		t.Fatalf("machine-pool gauges missing: %v", snap.Gauges)
	}

	resp, err = http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tr, []byte("server.run.table2")) {
		t.Fatal("request span missing from the exported trace")
	}
}
