package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/obs"
	"whisper/internal/server"
)

// readyBackend is a controllable fake whisperd health surface: its /readyz
// answer flips between serving, draining, and dead without restarting the
// listener.
type readyBackend struct {
	ts *httptest.Server
	// mode: 0 serving, 1 draining, 2 dead (connection-level refusal is
	// simulated with a hijack-close; a plain 500 would also count as down).
	mode atomic.Int32
}

func newReadyBackend(t *testing.T) *readyBackend {
	t.Helper()
	b := &readyBackend{}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.mode.Load() == 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		draining := b.mode.Load() == 1
		switch r.URL.Path {
		case "/readyz":
			ready := server.Readiness{Status: "ok", QueueInflight: 2, QueueWaiting: 1}
			status := http.StatusOK
			if draining {
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

func (b *readyBackend) addr() string { return strings.TrimPrefix(b.ts.URL, "http://") }

// TestPoolEjectionAndReinstatement drives the probe loop's state machine by
// hand: EjectAfter consecutive down-probes eject a backend, a recovered
// backend is reinstated once its backoff window passes, and both
// transitions surface as counters.
func TestPoolEjectionAndReinstatement(t *testing.T) {
	b := newReadyBackend(t)
	reg := obs.NewRegistry()
	p := newPool(Config{
		Backends:      []string{b.addr()},
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  time.Second,
		EjectAfter:    3,
		Obs:           reg,
	})

	if p.Healthy() != 1 {
		t.Fatalf("Healthy = %d at start (optimistic), want 1", p.Healthy())
	}

	b.mode.Store(2) // dead
	for i := 0; i < 2; i++ {
		p.ProbeAll()
	}
	if p.Healthy() != 1 {
		t.Fatalf("ejected after %d failures, want EjectAfter=3", 2)
	}
	p.ProbeAll()
	if p.Healthy() != 0 {
		t.Fatal("backend not ejected after 3 consecutive probe failures")
	}
	if got := reg.Snapshot().Counters[`gate.ejections{backend=`+b.addr()+`}`]; got != 1 {
		t.Fatalf("gate.ejections = %v, want 1", got)
	}

	// Recovered, but still inside the reinstatement backoff: not yet probed.
	b.mode.Store(0)
	p.ProbeAll()
	if p.Healthy() != 0 {
		t.Fatal("ejected backend probed before its backoff elapsed")
	}
	time.Sleep(10 * time.Millisecond) // backoff = ProbeInterval after first ejection
	p.ProbeAll()
	if p.Healthy() != 1 {
		t.Fatal("backend not reinstated after recovery")
	}
	if got := reg.Snapshot().Counters[`gate.reinstatements{backend=`+b.addr()+`}`]; got != 1 {
		t.Fatalf("gate.reinstatements = %v, want 1", got)
	}
}

// TestPoolDrainingStopsRoutingWithoutEjection checks the third probe
// verdict: a draining backend leaves the candidate set immediately but
// accrues no failures — it is winding down, not broken — and returns the
// moment it reports serving again.
func TestPoolDrainingStopsRoutingWithoutEjection(t *testing.T) {
	b := newReadyBackend(t)
	reg := obs.NewRegistry()
	p := newPool(Config{Backends: []string{b.addr()}, Obs: reg})

	b.mode.Store(1) // draining
	for i := 0; i < 5; i++ {
		p.ProbeAll()
	}
	if p.Healthy() != 0 {
		t.Fatal("draining backend still routeable")
	}
	if got := reg.Snapshot().Counters[`gate.ejections{backend=`+b.addr()+`}`]; got != 0 {
		t.Fatalf("draining counted as ejection: gate.ejections = %v", got)
	}

	b.mode.Store(0)
	p.ProbeAll() // no backoff to wait out: draining never ejected it
	if p.Healthy() != 1 {
		t.Fatal("backend not routeable again after drain ended")
	}
}

// TestPoolSetBackendsRetainsState checks the reload path: members kept
// across a SetBackends call keep their health state, new members join
// healthy, and removed members leave the ring.
func TestPoolSetBackendsRetainsState(t *testing.T) {
	dead := newReadyBackend(t)
	dead.mode.Store(2)
	live := newReadyBackend(t)
	p := newPool(Config{
		Backends:   []string{dead.addr(), live.addr()},
		EjectAfter: 1,
	})
	p.ProbeAll()
	if p.Healthy() != 1 {
		t.Fatalf("Healthy = %d after probing one dead member, want 1", p.Healthy())
	}

	// Reload keeping both and adding a third: the dead member must stay
	// ejected (state retained), not reset to optimistic-healthy.
	extra := newReadyBackend(t)
	p.SetBackends([]string{dead.addr(), live.addr(), extra.addr()})
	if p.Size() != 3 {
		t.Fatalf("Size = %d after reload, want 3", p.Size())
	}
	if p.Healthy() != 2 {
		t.Fatalf("Healthy = %d after reload, want 2 (ejection retained)", p.Healthy())
	}

	// Reload dropping the dead member entirely.
	p.SetBackends([]string{live.addr(), extra.addr()})
	if p.Size() != 2 || p.Healthy() != 2 {
		t.Fatalf("Size, Healthy = %d, %d after removal, want 2, 2", p.Size(), p.Healthy())
	}
	for _, name := range p.ring.Members() {
		if name == dead.addr() {
			t.Fatal("removed backend still on the ring")
		}
	}
}

// TestPoolPickSkipsUnrouteable checks pick filters ejected members while
// preserving ring order for the rest.
func TestPoolPickSkipsUnrouteable(t *testing.T) {
	a := newReadyBackend(t)
	b := newReadyBackend(t)
	p := newPool(Config{Backends: []string{a.addr(), b.addr()}, EjectAfter: 1})

	cands := p.pick("some-request-hash")
	if len(cands) != 2 {
		t.Fatalf("pick returned %d candidates, want 2", len(cands))
	}
	home := cands[0].name

	// Eject the home backend: pick must return only the other.
	var deadBackend *readyBackend
	if home == a.addr() {
		deadBackend = a
	} else {
		deadBackend = b
	}
	deadBackend.mode.Store(2)
	p.ProbeAll()
	cands = p.pick("some-request-hash")
	if len(cands) != 1 || cands[0].name == home {
		t.Fatalf("pick after ejection = %v, want only the surviving backend", names(cands))
	}
}

// TestPoolBoundedLoadDemotesHotBackend checks the bounded-load rule: a
// backend far past its fair share of in-flight work is moved behind its
// ring successors, and returns to the front once the load clears.
func TestPoolBoundedLoadDemotesHotBackend(t *testing.T) {
	a := newReadyBackend(t)
	b := newReadyBackend(t)
	p := newPool(Config{Backends: []string{a.addr(), b.addr()}, LoadFactor: 1.25})

	cands := p.pick("hot-key")
	home := cands[0]
	home.inflight.Store(100) // way past 1.25× the fair share of 100 total

	cands = p.pick("hot-key")
	if cands[0] == home {
		t.Fatal("overloaded home backend still first in pick order")
	}
	if len(cands) != 2 || cands[1] != home {
		t.Fatalf("overloaded backend dropped instead of demoted: %v", names(cands))
	}

	home.inflight.Store(0)
	cands = p.pick("hot-key")
	if cands[0] != home {
		t.Fatal("home backend not restored to the front after load cleared")
	}
}

func names(bs []*backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.name
	}
	return out
}

// healthStep is one scripted input to a backend's health state machine.
type healthStep int

const (
	stepProbeUp       healthStep = iota // /readyz serving, one probe round
	stepProbeDraining                   // /readyz draining, one probe round
	stepProbeDown                       // connection dropped, one probe round
	stepConnErr                         // a forward whose connection is dropped
	step5xx                             // a forward answered 503
	step429                             // a forward answered 429
	step404                             // a forward answered 404
	step200                             // a forward answered 200
	stepBackoffPasses                   // the backend's next probe falls due
)

// TestBackendHealthStateMachine drives one backend through scripted probe
// verdicts and forward outcomes and checks where the state machine lands:
// its state, whether it is routed, and the ejection and reinstatement
// counters. Forwards go straight to attempt, so an ejected backend can also
// see the late responses of requests it received before ejection.
func TestBackendHealthStateMachine(t *testing.T) {
	burst := []healthStep{stepConnErr, stepConnErr, stepConnErr}
	cases := []struct {
		name          string
		steps         []healthStep
		want          health
		ejections     uint64
		reinstatement uint64
	}{
		{"5xx burst ejects at EjectAfter", []healthStep{step5xx, step5xx, step5xx}, ejected, 1, 0},
		{"failures below EjectAfter leave it suspect", []healthStep{step5xx, stepConnErr}, suspect, 0, 0},
		{"probes and forwards share one count", []healthStep{stepProbeDown, step5xx, stepConnErr}, ejected, 1, 0},
		{"200 on a suspect backend resets the count",
			[]healthStep{step5xx, step5xx, step200, step5xx, step5xx}, suspect, 0, 0},
		{"passing probe resets the count",
			[]healthStep{stepProbeDown, stepProbeDown, stepProbeUp, stepProbeDown, stepProbeDown}, suspect, 0, 0},
		{"draining clears the count and never ejects",
			[]healthStep{stepConnErr, stepConnErr, stepProbeDraining, stepProbeDraining, stepProbeDraining,
				stepProbeUp, stepConnErr, stepConnErr}, suspect, 0, 0},
		{"draining is not routed", []healthStep{stepProbeDraining, step200}, draining, 0, 0},
		{"429 and other 4xx never count",
			[]healthStep{step429, step429, step429, step404, step404, step404}, healthy, 0, 0},
		{"a 4xx answer resets the count like a 200",
			[]healthStep{step5xx, step5xx, step429, step5xx, step5xx}, suspect, 0, 0},
		{"ejected ignores early probes and late 200s",
			append(burst, stepProbeUp, step200, step200, step200), ejected, 1, 0},
		{"failed probe after the backoff keeps it ejected",
			append(burst, stepBackoffPasses, stepProbeDown), ejected, 1, 0},
		{"passing probe after the backoff reinstates",
			append(burst, stepProbeUp, stepBackoffPasses, stepProbeUp), healthy, 1, 1},
		{"draining probe after the backoff leaves ejection but is not routed",
			append(burst, stepBackoffPasses, stepProbeDraining), draining, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := newStubBackend(t, `{"hash":"a"}`)
			gw, _ := newTestGateway(t, Config{Backends: []string{stub.addr()}, EjectAfter: 3})
			b := gw.pool.lookup(stub.addr())
			payload := []byte(`{"experiment":"throughput"}`)
			for _, s := range tc.steps {
				stub.dead.Store(s == stepProbeDown || s == stepConnErr)
				stub.draining.Store(s == stepProbeDraining)
				stub.status.Store(map[healthStep]int32{
					step5xx: http.StatusServiceUnavailable,
					step429: http.StatusTooManyRequests,
					step404: http.StatusNotFound,
				}[s])
				switch s {
				case stepProbeUp, stepProbeDraining, stepProbeDown:
					gw.pool.ProbeAll()
				case stepBackoffPasses:
					b.mu.Lock()
					b.nextProbe = time.Now()
					b.mu.Unlock()
				default:
					gw.attempt(context.Background(), b, http.MethodPost, "/v1/run", payload)
				}
			}

			b.mu.Lock()
			state := b.state
			b.mu.Unlock()
			if state != tc.want {
				t.Errorf("state = %v, want %v", state, tc.want)
			}
			routed := tc.want == healthy || tc.want == suspect
			if got := gw.pool.Healthy() == 1; got != routed {
				t.Errorf("routeable = %v, want %v", got, routed)
			}
			counters := gw.Obs().Snapshot().Counters
			if got := counters[`gate.ejections{backend=`+stub.addr()+`}`]; got != tc.ejections {
				t.Errorf("gate.ejections = %v, want %v", got, tc.ejections)
			}
			if got := counters[`gate.reinstatements{backend=`+stub.addr()+`}`]; got != tc.reinstatement {
				t.Errorf("gate.reinstatements = %v, want %v", got, tc.reinstatement)
			}
		})
	}
}

// TestOnlyFailedProbesAdvanceBackoff checks forwards that fail after their
// backend was ejected (requests already in flight when it died) leave the
// reinstatement backoff at ProbeInterval; only a failed probe doubles it.
func TestOnlyFailedProbesAdvanceBackoff(t *testing.T) {
	stub := newStubBackend(t, `{"hash":"a"}`)
	stub.dead.Store(true)
	gw, _ := newTestGateway(t, Config{
		Backends:      []string{stub.addr()},
		EjectAfter:    1,
		ProbeInterval: 2 * time.Second,
	})
	b := gw.pool.lookup(stub.addr())
	backoff := func() time.Duration {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.backoff
	}

	for i := 0; i < 6; i++ {
		gw.attempt(context.Background(), b, http.MethodPost, "/v1/run", []byte(`{"experiment":"throughput"}`))
	}
	if got := backoff(); got != 2*time.Second {
		t.Fatalf("backoff after 6 failed forwards = %v, want ProbeInterval (2s)", got)
	}

	b.mu.Lock()
	b.nextProbe = time.Now()
	b.mu.Unlock()
	gw.pool.ProbeAll()
	if got := backoff(); got != 4*time.Second {
		t.Fatalf("backoff after a failed probe = %v, want 4s", got)
	}
}

// sample is one synthetic forward: the answer's X-Whisper-Cache value and
// the gateway's forward time in milliseconds.
type sample struct {
	cache string
	ms    float64
}

func samples(cache string, ms ...float64) []sample {
	out := make([]sample, len(ms))
	for i, m := range ms {
		out[i] = sample{cache, m}
	}
	return out
}

func record(p *Pool, b *backend, ss []sample) {
	for _, s := range ss {
		p.observe(b, s.cache, time.Duration(s.ms*float64(time.Millisecond)))
	}
}

// TestPoolSlowReplicaRule drives pick's slow-replica rule with synthetic
// forward times. A key's home is demoted behind its peers only while the
// minimum of its last four cache hits is over 5 ms and over 10× the fastest
// candidate's, and its newest hit is younger than ProbeInterval.
func TestPoolSlowReplicaRule(t *testing.T) {
	const interval = 2 * time.Second
	fast := samples("hit", 0.1, 0.1, 0.1, 0.1)
	slow := samples("hit", 40, 40, 40, 40)
	cases := []struct {
		name    string
		members int
		home    []sample      // recorded on the key's home, oldest first
		peers   []sample      // recorded on every other member
		aged    time.Duration // then the home's newest hit is moved this far back
		after   []sample      // then recorded on the home
		demoted bool
	}{
		{"a window of 40 ms hits demotes", 3, slow, fast, 0, nil, true},
		{"two members: the successor first, then the slow home", 2, slow, fast, 0, nil, true},
		{"one stalled hit among fast ones does not demote", 3, samples("hit", 0.1, 40, 0.1, 0.1), fast, 0, nil, false},
		{"three hits are not a window", 3, samples("hit", 40, 40, 40), fast, 0, nil, false},
		{"slow misses do not demote", 3, samples("miss", 40, 40, 40, 40), fast, 0, nil, false},
		{"slow coalesced answers do not demote", 3, samples("coalesced", 40, 40, 40, 40), fast, 0, nil, false},
		{"misses do not push hits out of the window",
			3, append(samples("miss", 0.1, 0.1, 0.1, 0.1), slow...), fast, 0, samples("miss", 0.1), true},
		{"under the 5 ms floor", 3, samples("hit", 4, 4, 4, 4), fast, 0, nil, false},
		{"within 10x of the fastest peer", 3, slow, samples("hit", 8, 8, 8, 8), 0, nil, false},
		{"no peer has a full window", 3, slow, samples("hit", 0.1, 0.1, 0.1), 0, nil, false},
		{"the flag lapses after ProbeInterval", 3, slow, fast, interval, nil, false},
		{"one slow hit after the lapse demotes again", 3, slow, fast, interval, samples("hit", 40), true},
		{"one fast hit clears the flag", 3, slow, fast, 0, samples("hit", 0.1), false},
		{"a pool of one is never demoted", 1, slow, nil, 0, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var addrs []string
			for i := 0; i < tc.members; i++ {
				addrs = append(addrs, fmt.Sprintf("backend-%d:80", i+1))
			}
			reg := obs.NewRegistry()
			p := newPool(Config{Backends: addrs, ProbeInterval: interval, Obs: reg})
			ring := p.pick("slow-key")
			home := ring[0]
			record(p, home, tc.home)
			for _, b := range ring[1:] {
				record(p, b, tc.peers)
			}
			p.hitMu.Lock()
			home.lastHit = home.lastHit.Add(-tc.aged)
			p.hitMu.Unlock()
			record(p, home, tc.after)

			want := ring
			if tc.demoted {
				want = append(append([]*backend{}, ring[1:]...), home)
			}
			if got := p.pick("slow-key"); !slices.Equal(got, want) {
				t.Errorf("pick = %v, want %v", names(got), names(want))
			}
			rerouted := uint64(0)
			if tc.demoted {
				rerouted = 1
			}
			if got := reg.Snapshot().Counters[`gate.slow.rerouted{backend=`+home.name+`}`]; got != rerouted {
				t.Errorf("gate.slow.rerouted = %v, want %v", got, rerouted)
			}
		})
	}
}

// TestSlowReplicaLogsTransitionsOnce checks the demotion explains itself
// without logging per request: one Warn line when a backend turns slow, none
// while its flag lapses and is re-measured, one Info line when a fast hit
// clears it, and the hit_us and slow gauges follow.
func TestSlowReplicaLogsTransitionsOnce(t *testing.T) {
	var logs bytes.Buffer
	reg := obs.NewRegistry()
	p := newPool(Config{
		Backends: []string{"backend-1:80", "backend-2:80", "backend-3:80"},
		Obs:      reg,
		Log:      slog.New(slog.NewTextHandler(&logs, nil)),
	})
	ring := p.pick("slow-key")
	home := ring[0]
	for _, b := range ring[1:] {
		record(p, b, samples("hit", 0.1, 0.1, 0.1, 0.1))
	}
	gauges := func() (hitUS, slow float64) {
		p.publishHealthGauges()
		g := reg.Snapshot().Gauges
		return g[`gate.backend.hit_us{backend=`+home.name+`}`], g[`gate.backend.slow{backend=`+home.name+`}`]
	}
	lines := func(msg string) int { return strings.Count(logs.String(), `msg="`+msg+`"`) }

	record(p, home, samples("hit", 40, 40, 40))
	if hitUS, slow := gauges(); hitUS != 0 || slow != 0 {
		t.Fatalf("before the window fills: hit_us %v, slow %v; want 0, 0", hitUS, slow)
	}
	record(p, home, samples("hit", 41))
	for i := 0; i < 5; i++ {
		p.pick("slow-key")
	}
	if hitUS, slow := gauges(); hitUS != 40000 || slow != 1 {
		t.Fatalf("after four 40 ms hits: hit_us %v, slow %v; want 40000, 1", hitUS, slow)
	}
	if got := reg.Snapshot().Counters[`gate.slow.rerouted{backend=`+home.name+`}`]; got != 5 {
		t.Fatalf("gate.slow.rerouted = %v after 5 picks, want 5", got)
	}

	// Lapse and re-measure slow: routed home once, then demoted again, all
	// without a log line.
	p.hitMu.Lock()
	home.lastHit = home.lastHit.Add(-defaultProbeInterval)
	p.hitMu.Unlock()
	if got := p.pick("slow-key"); got[0] != home {
		t.Fatalf("lapsed home not routed first: %v", names(got))
	}
	record(p, home, samples("hit", 40))
	if got := p.pick("slow-key"); got[0] == home {
		t.Fatal("home not demoted again after a slow re-measure")
	}

	record(p, home, samples("hit", 0.2))
	for i := 0; i < 3; i++ {
		if got := p.pick("slow-key"); got[0] != home {
			t.Fatalf("home not restored after a fast hit: %v", names(got))
		}
	}
	if hitUS, slow := gauges(); hitUS != 200 || slow != 0 {
		t.Fatalf("after a fast hit: hit_us %v, slow %v; want 200, 0", hitUS, slow)
	}
	if w, i := lines("backend slow, routing around"), lines("backend no longer slow"); w != 1 || i != 1 {
		t.Fatalf("log lines: %d slow, %d cleared; want 1 and 1\n%s", w, i, logs.String())
	}
}

// TestSlowReplicaRuleConcurrent records hits and picks from several
// goroutines at once, as concurrent forwards do, and checks every pick
// still returns each member once, the slow home ends up last, and the
// turn to slow is logged once.
func TestSlowReplicaRuleConcurrent(t *testing.T) {
	var logs bytes.Buffer
	p := newPool(Config{
		Backends: []string{"backend-1:80", "backend-2:80", "backend-3:80"},
		Log:      slog.New(slog.NewTextHandler(&logs, nil)),
	})
	ring := p.pick("slow-key")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, took := ring[(g+i)%len(ring)], 100*time.Microsecond
				if b == ring[0] {
					took = 40 * time.Millisecond
				}
				p.observe(b, "hit", took)
				if got := p.pick("slow-key"); len(got) != len(ring) {
					t.Errorf("pick returned %d of %d members", len(got), len(ring))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := p.pick("slow-key"); got[len(got)-1] != ring[0] {
		t.Errorf("pick = %v, want the slow home %s last", names(got), ring[0].name)
	}
	if n := strings.Count(logs.String(), `msg="backend slow, routing around"`); n != 1 {
		t.Errorf("%d slow lines logged, want 1\n%s", n, logs.String())
	}
}
