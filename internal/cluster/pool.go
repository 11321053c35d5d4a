package cluster

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
)

// Pool defaults.
const (
	defaultProbeInterval = 2 * time.Second
	defaultProbeTimeout  = time.Second
	defaultEjectAfter    = 3
	maxProbeBackoff      = 30 * time.Second
	defaultLoadFactor    = 1.25
)

// The slow-replica rule. A backend's hit time is the minimum gateway forward
// time of its last hitWindow cache hits, so one stalled hit cannot demote it.
// pick moves a backend behind its peers while its hit time exceeds both
// slowHitFloor and slowHitRatio× the fastest candidate's. Healthy hits sit
// far below both bounds: on a 2-vCPU Xeon, traced benchmark runs measure a
// whisperd cache hit at 57–90 µs (server.hit_us_p50) and the gateway hop at
// 68–132 µs (cluster.hop_us_p50).
const (
	hitWindow    = 4
	slowHitFloor = 5 * time.Millisecond
	slowHitRatio = 10
)

// health is a backend's routing state. One consecutive-failure count drives
// it, fed by probe verdicts and forward outcomes alike:
//
//	healthy ⇄ suspect → ejected → (passing probe after its backoff) → healthy
//
// and any state moves to draining when the backend's /readyz says so.
type health int

const (
	healthy  health = iota // routed; no failure since the last success
	suspect                // routed; 1 to EjectAfter-1 consecutive failures
	ejected                // not routed; probed on the backoff schedule
	draining               // alive but winding down; not routed
)

func (h health) String() string {
	return [...]string{"healthy", "suspect", "ejected", "draining"}[h]
}

// event is one input to a backend's health state machine.
type event int

const (
	probeUp       event = iota // /readyz: serving
	probeDraining              // /readyz: alive but draining
	probeDown                  // /readyz: unreachable or failing
	forwardOK                  // a forward got an answer below 500
	forwardFailed              // a forward got a connection error, an unreadable body, or a 5xx
)

// backend is one pool member: its address, its health state, and the
// inflight load and cache-hit times the picker reads.
type backend struct {
	name string // as configured, label-friendly ("127.0.0.1:8090")
	base string // normalized URL ("http://127.0.0.1:8090")

	inflight atomic.Int64

	mu         sync.Mutex
	state      health
	fails      int           // consecutive failures, probes and forwards alike
	backoff    time.Duration // ejected: wait before the next probe
	nextProbe  time.Time     // ejected: when the next probe is due
	queueDepth int           // backend-reported inflight+waiting, from /readyz

	// Guarded by Pool.hitMu.
	hits    [hitWindow]time.Duration // forward times of the latest cache hits, a ring
	nhits   int                      // cache hits recorded
	lastHit time.Time                // when the newest hit was recorded
	slow    bool                     // the slow-replica rule's last verdict, age aside
}

// routeable reports whether the picker may send this backend new work.
func (b *backend) routeable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == healthy || b.state == suspect
}

// hitTime returns the minimum of b's hit window; ok is false until the
// window is full. The caller holds Pool.hitMu.
func (b *backend) hitTime() (hit time.Duration, ok bool) {
	if b.nhits < hitWindow {
		return 0, false
	}
	return slices.Min(b.hits[:]), true
}

// Pool is the health-checked backend set behind a Gateway: the configured
// members (static list, reloadable), the consistent-hash ring over them,
// and an active prober that, with the forwarding path, drives each
// member's health state.
type Pool struct {
	cfg Config

	mu       sync.Mutex
	ring     *Ring
	backends map[string]*backend

	// hitMu guards every member's hit window and slow verdict together, so
	// a verdict read from one window state is never stored over one read
	// from a newer state.
	hitMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{} // closed when the probe loop exits; nil until Start
}

// newPool resolves cfg's defaults, builds the pool and marks every backend
// healthy (optimistic: the first probe round, or the first failed forwards,
// correct that). Call Start to begin probing and Stop to halt it.
func newPool(cfg Config) *Pool {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = defaultProbeTimeout
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = defaultEjectAfter
	}
	if cfg.LoadFactor <= 1 {
		cfg.LoadFactor = defaultLoadFactor
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = logging.Discard()
	}
	p := &Pool{
		cfg:      cfg,
		backends: make(map[string]*backend),
		stop:     make(chan struct{}),
	}
	p.SetBackends(cfg.Backends)
	return p
}

// normalizeAddr mirrors client.New's address handling.
func normalizeAddr(addr string) (name, base string) {
	name = strings.TrimSpace(addr)
	base = name
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	name = strings.TrimPrefix(strings.TrimPrefix(name, "http://"), "https://")
	name = strings.TrimRight(name, "/")
	return name, base
}

// SetBackends replaces the member set (the -backends-file reload path).
// Retained members keep their health state; new members start healthy;
// removed members leave the ring. The ring is rebuilt from the configured
// set — ejection never rebuilds it, which is what makes eject/reinstate
// minimal-remap.
func (p *Pool) SetBackends(addrs []string) {
	p.mu.Lock()
	next := make(map[string]*backend, len(addrs))
	var names []string
	for _, addr := range addrs {
		name, base := normalizeAddr(addr)
		if name == "" {
			continue
		}
		if _, dup := next[name]; dup {
			continue
		}
		if b, ok := p.backends[name]; ok {
			next[name] = b
		} else {
			next[name] = &backend{name: name, base: base}
		}
		names = append(names, name)
	}
	removed := 0
	for name := range p.backends {
		if _, ok := next[name]; !ok {
			removed++
		}
	}
	p.backends = next
	p.ring = NewRing(names)
	p.mu.Unlock()

	p.cfg.Obs.Counter("gate.pool.reloads").Inc()
	p.cfg.Obs.Gauge("gate.backends.configured").Set(float64(len(names)))
	p.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, "backend set updated",
		slog.Int("members", len(names)), slog.Int("removed", removed))
	p.publishHealthGauges()
}

// Start launches the probe loop; a second call does nothing.
func (p *Pool) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done == nil {
		p.done = make(chan struct{})
		go p.loop(p.done)
	}
}

// Stop halts probing and waits for the probe loop, if Start launched one,
// to exit. It may be called before Start and more than once.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.Lock()
	done := p.done
	p.mu.Unlock()
	if done != nil {
		<-done
	}
}

func (p *Pool) loop(done chan struct{}) {
	defer close(done)
	for {
		// Jitter ±25% so a fleet of gateways doesn't probe in lockstep.
		d := p.cfg.ProbeInterval/2 + time.Duration(rand.Int63n(int64(p.cfg.ProbeInterval)))/2 +
			p.cfg.ProbeInterval/4
		select {
		case <-p.stop:
			return
		case <-time.After(d):
		}
		p.ProbeAll()
	}
}

// ProbeAll health-checks every due member once, concurrently. Ejected
// members are only probed when their backoff window has elapsed, so a dead
// backend costs one request per backoff period, not per interval.
func (p *Pool) ProbeAll() {
	now := time.Now()
	var wg sync.WaitGroup
	for _, b := range p.members() {
		b.mu.Lock()
		due := b.state != ejected || !now.Before(b.nextProbe)
		b.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			p.probe(b)
		}(b)
	}
	wg.Wait()
	p.publishHealthGauges()
}

// probe checks one backend's /readyz and applies the verdict. The readiness
// document distinguishes a 503-but-alive draining backend from a dead one.
func (p *Pool) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	ev, depth := p.check(ctx, b)
	p.apply(b, ev, depth)
}

// check performs one GET /readyz and classifies it.
func (p *Pool) check(ctx context.Context, b *backend) (event, int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
	if err != nil {
		return probeDown, 0
	}
	resp, err := p.cfg.HTTP.Do(req)
	if err != nil {
		return probeDown, 0
	}
	defer resp.Body.Close()
	var ready server.Readiness
	decoded := json.NewDecoder(resp.Body).Decode(&ready) == nil && ready.Status != ""
	switch {
	case resp.StatusCode == http.StatusOK:
		if decoded && ready.Draining {
			return probeDraining, ready.QueueInflight + ready.QueueWaiting
		}
		if decoded {
			return probeUp, ready.QueueInflight + ready.QueueWaiting
		}
		return probeUp, 0
	case resp.StatusCode == http.StatusServiceUnavailable && decoded && ready.Draining:
		return probeDraining, ready.QueueInflight + ready.QueueWaiting
	default:
		return probeDown, 0
	}
}

// apply folds one event into b's health state; depth is the queue depth a
// probe reported. Probe and forward failures advance one count, and
// EjectAfter of them in a row eject. An ejected backend ignores forwards
// still in flight — a late 200 does not bring it back, a late failure does
// not lengthen its backoff — and only probes move it: a passing one
// reinstates it, a failing one doubles the wait for the next.
func (p *Pool) apply(b *backend, ev event, depth int) {
	b.mu.Lock()
	from := b.state
	switch ev {
	case probeUp:
		b.state, b.fails, b.queueDepth = healthy, 0, depth
	case probeDraining:
		// Draining is not a failure: the backend comes back as itself
		// (restart) or leaves the config.
		b.state, b.fails, b.queueDepth = draining, 0, depth
	case forwardOK:
		if from == suspect {
			b.state, b.fails = healthy, 0
		}
	case probeDown, forwardFailed:
		switch {
		case from == ejected && ev == probeDown:
			b.backoff = min(2*b.backoff, maxProbeBackoff)
			b.nextProbe = time.Now().Add(b.backoff)
		case from == ejected:
			// A forward that was in flight at ejection: already counted.
		default:
			b.fails++
			if b.fails >= p.cfg.EjectAfter {
				b.state = ejected
				b.backoff = p.cfg.ProbeInterval
				b.nextProbe = time.Now().Add(b.backoff)
			} else if from == healthy {
				b.state = suspect
			}
		}
	}
	to, fails := b.state, b.fails
	b.mu.Unlock()
	if to == from {
		return
	}

	ctx := context.Background()
	lbl := obs.L("backend", b.name)
	switch {
	case to == ejected:
		p.cfg.Obs.Counter("gate.ejections", lbl).Inc()
		p.cfg.Log.LogAttrs(ctx, slog.LevelWarn, "backend ejected",
			slog.String("backend", b.name), slog.Int("consecutive_failures", fails))
	case from == ejected:
		p.cfg.Obs.Counter("gate.reinstatements", lbl).Inc()
		p.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "backend reinstated",
			slog.String("backend", b.name), slog.String("state", to.String()))
	case to == draining:
		p.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "backend draining, rerouting",
			slog.String("backend", b.name))
	}
	p.publishHealthGauges()
}

// members snapshots the backend set.
func (p *Pool) members() []*backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		out = append(out, b)
	}
	return out
}

// lookup resolves a member by name.
func (p *Pool) lookup(name string) *backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends[name]
}

// Healthy returns how many members are currently routeable.
func (p *Pool) Healthy() int {
	n := 0
	for _, b := range p.members() {
		if b.routeable() {
			n++
		}
	}
	return n
}

// Size returns the configured member count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.backends)
}

// observe records one 200's forward time from b, given its X-Whisper-Cache
// value. Only a hit measures the backend itself: a miss or a coalesced
// answer also carries the request's own execution time, so it is dropped.
func (p *Pool) observe(b *backend, cache string, took time.Duration) {
	if cache != "hit" {
		return
	}
	p.hitMu.Lock()
	b.hits[b.nhits%hitWindow] = took
	b.nhits++
	b.lastHit = time.Now()
	p.hitMu.Unlock()
}

// pick returns the candidate backends for a request hash: the ring's
// preference order for the key, filtered to routeable members, with
// overloaded and slow members moved to the back and ring order kept within
// each group. A member is overloaded once its inflight count exceeds
// LoadFactor× the fair share, so a hot backend sheds overflow to its ring
// successor while cold keys keep full cache affinity. A member is slow by
// the rule slowCandidates applies; its keys go to their successors until a
// fresh hit shows it fast again.
func (p *Pool) pick(hash string) []*backend {
	p.mu.Lock()
	ring := p.ring
	p.mu.Unlock()
	var cands []*backend
	total := int64(0)
	for _, name := range ring.Order(hash) {
		b := p.lookup(name)
		if b == nil || !b.routeable() {
			continue
		}
		cands = append(cands, b)
		total += b.inflight.Load()
	}
	if len(cands) < 2 {
		return cands
	}
	slow := p.slowCandidates(cands)
	if slow[0] {
		p.cfg.Obs.Counter("gate.slow.rerouted", obs.L("backend", cands[0].name)).Inc()
	}
	ceiling := int64(float64(total+1)*p.cfg.LoadFactor/float64(len(cands))) + 1
	ordered := make([]*backend, 0, len(cands))
	var demoted []*backend
	for i, b := range cands {
		if !slow[i] && b.inflight.Load()+1 <= ceiling {
			ordered = append(ordered, b)
		} else {
			demoted = append(demoted, b)
		}
	}
	return append(ordered, demoted...)
}

// slowCandidates reports which of pick's candidates are slow: the window
// holds hitWindow hits, the newest younger than ProbeInterval, and the hit
// time exceeds slowHitFloor and slowHitRatio× the fastest candidate's. Once
// the newest hit ages out, the next request for the member's keys goes home
// and re-measures it; the inflight ceiling lets one such request through at
// a time, so no timer or goroutine is needed. Each member's verdict without
// the age test is kept in backend.slow, and its changes are logged: once
// when the member turns slow, once when a fast hit clears it.
func (p *Pool) slowCandidates(cands []*backend) []bool {
	type change struct {
		b    *backend
		slow bool
		hit  time.Duration
	}
	var changes []change
	now := time.Now()
	slow := make([]bool, len(cands))
	p.hitMu.Lock()
	fastest := time.Duration(math.MaxInt64)
	for _, b := range cands {
		if hit, ok := b.hitTime(); ok {
			fastest = min(fastest, hit)
		}
	}
	for i, b := range cands {
		hit, ok := b.hitTime()
		verdict := ok && hit > slowHitFloor && hit > slowHitRatio*fastest
		slow[i] = verdict && now.Sub(b.lastHit) < p.cfg.ProbeInterval
		if verdict != b.slow {
			b.slow = verdict
			changes = append(changes, change{b, verdict, hit})
		}
	}
	p.hitMu.Unlock()

	for _, c := range changes {
		level, msg := slog.LevelInfo, "backend no longer slow"
		if c.slow {
			level, msg = slog.LevelWarn, "backend slow, routing around"
		}
		p.cfg.Log.LogAttrs(context.Background(), level, msg, slog.String("backend", c.b.name),
			slog.Int64("hit_us", c.hit.Microseconds()), slog.Int64("fastest_us", fastest.Microseconds()))
	}
	return slow
}

// publishHealthGauges refreshes the per-backend and aggregate health
// gauges /metrics serves.
func (p *Pool) publishHealthGauges() {
	healthy := 0
	for _, b := range p.members() {
		lbl := obs.L("backend", b.name)
		up := 0.0
		if b.routeable() {
			up = 1
			healthy++
		}
		p.cfg.Obs.Gauge("gate.backend.healthy", lbl).Set(up)
		b.mu.Lock()
		depth := b.queueDepth
		b.mu.Unlock()
		p.cfg.Obs.Gauge("gate.backend.queue_depth", lbl).Set(float64(depth))
		p.hitMu.Lock()
		hit, _ := b.hitTime()
		slow := 0.0
		if b.slow {
			slow = 1
		}
		p.hitMu.Unlock()
		p.cfg.Obs.Gauge("gate.backend.hit_us", lbl).Set(float64(hit.Microseconds()))
		p.cfg.Obs.Gauge("gate.backend.slow", lbl).Set(slow)
	}
	p.cfg.Obs.Gauge("gate.backends.healthy").Set(float64(healthy))
}
