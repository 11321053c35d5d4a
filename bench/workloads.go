package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"whisper/internal/cluster"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/obs"
	"whisper/internal/sched"
	"whisper/internal/server"
	"whisper/internal/snapshot"
)

// workload is one traffic mix. run replays it once: set-up, the timed
// phases, then the correctness checks. With a tracer it also returns the
// traffic the per-layer metrics are computed from.
type workload struct {
	name string
	// keys are the distinct requests the workload draws from (for the
	// normalize/hash probe).
	keys func(seed int64) []server.Request
	run  func(ctx context.Context, o opts, tr *tracer, refs *refs) (*pass, *traffic, error)
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and README.md
// say why each exists.
var workloads = []workload{
	{
		name: "sim-batch",
		keys: func(int64) []server.Request { return defaultRequests() },
		run:  runSimBatch,
	},
	{
		name: "serve-cold",
		keys: func(seed int64) []server.Request { return coldRequests(seed, 0, len(coldMix)) },
		run:  runServeCold,
	},
	{
		name: "gate-zipf",
		keys: func(int64) []server.Request { return gateKeys() },
		run: func(ctx context.Context, o opts, tr *tracer, refs *refs) (*pass, *traffic, error) {
			return runGate(ctx, o, tr, refs, false)
		},
	},
	{
		name: "gate-zipf-slow",
		keys: func(int64) []server.Request { return gateKeys() },
		run: func(ctx context.Context, o opts, tr *tracer, refs *refs) (*pass, *traffic, error) {
			return runGate(ctx, o, tr, refs, true)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload shape. Rates and limits were calibrated on a 2-core host; see
// README.md.
const (
	setupReps = 3 // set-up repetitions per run; setup_s is their median

	simDigestOps = 24 // sim-batch's first sweeps, folded into the output digest

	coldDigestOps = 60 // serve-cold's first responses, folded into the output digest
	coldCheckOne  = 8  // 1 in coldCheckOne responses is re-executed directly

	gateRate    = 60.0 // open-loop arrivals per second
	gateLimit   = 250 * time.Millisecond
	gateSeeds   = 4 // seeds per experiment in the key set
	gateEntries = 8 // each backend's memory cache entries
	zipfS       = 1.1
	slowDelay   = 40 * time.Millisecond
)

// coldMix is serve-cold's request mix; every block of len(coldMix)
// consecutive requests holds each entry once, in a seeded order.
var coldMix = []string{"table2", "table2", "kaslr", "kaslr", "leak", "leak", "attacks",
	"throughput", "fig1b", "fig4", "mitigations", "stealth", "condfamily", "noise", "table3"}

// servedExperiments are the twelve experiments the workloads request,
// cheapest first at lightRequest's sizes.
var servedExperiments = []string{"condfamily", "fig4", "fig1b", "table3", "leak", "attacks",
	"stealth", "throughput", "mitigations", "kaslr", "noise", "table2"}

// gateExperiments are the experiments of the gate workloads' key set, in
// Zipf rank order: all but table2, which has no size to shrink and whose
// 120-200 ms executions starve the hit path of a 2-core host.
var gateExperiments = servedExperiments[:len(servedExperiments)-1]

// lightRequest is experiment e at seed s at the smallest size the request
// allows. The gate workloads measure serving, so their executions should do
// little; the warm-up requests only need to reach every code path once.
func lightRequest(e string, s int64) server.Request {
	r := server.Request{Experiment: e, Seed: s}
	switch e {
	case "kaslr":
		r.KASLRReps = 1
	case "throughput":
		r.ThroughputBytes = 1
	case "fig1b":
		r.Fig1bBatches = 1
	case "attacks":
		r.Attacks = []string{"cc"}
	case "leak":
		r.Secret = "w"
	}
	return r
}

// warmRequests are serve-cold's warm-up, sent once per set-up repetition:
// every experiment, light, at warmSeed, which no timed request uses. Scaled
// down, the cheapest alone proves the stack serves.
func warmRequests(o opts) []server.Request {
	var reqs []server.Request
	for _, e := range servedExperiments {
		reqs = append(reqs, lightRequest(e, warmSeed))
	}
	if o.Scale < 1 {
		return reqs[:1]
	}
	return reqs
}

// opts are one invocation's settings.
type opts struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	OutDir   string // scratch space, profiles and traces
	// Scale below 1 shrinks set-up, sweep sizes and probes for tests; real
	// runs use 1.
	Scale float64
}

func (o opts) setupReps() int {
	if o.Scale < 1 {
		return 1
	}
	return setupReps
}

// scaled is n scaled down by o.Scale, at least 1.
func (o opts) scaled(n int) int {
	if o.Scale >= 1 {
		return n
	}
	return max(1, int(float64(n)*o.Scale))
}

func nproc() int { return runtime.GOMAXPROCS(0) }

// rngFor is a deterministic stream for one purpose of one run.
func rngFor(seed int64, purpose string) *rand.Rand {
	return rand.New(rand.NewSource(sched.DeriveSeed(seed, purpose)))
}

// pass is what one replay of a workload measured.
type pass struct {
	setup    []float64 // seconds per set-up repetition
	began    time.Time // when the timed phases began
	latOps   []outcome // the operations latency and CPU are measured over
	capOps   []outcome // the closed-loop operations capacity is measured over, if any
	lag      []float64 // ms the generator ran late, every timed operation
	ops      int       // operations completed across the timed phases
	tried    int
	failed   int
	wall     time.Duration // timed phases
	rssMiB   float64
	limit    time.Duration // the open loop's latency limit; 0 without one
	problems []string
	digest   string // output digest over digestN outputs
	digestN  int
}

// account folds one timed phase's outcomes into the pass.
func (p *pass) account(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		p.tried++
		p.lag = append(p.lag, o.lagMS())
		switch {
		case o.err != nil:
			p.failed++
		case o.problem != "":
			p.problems = append(p.problems, o.problem)
		default:
			p.ops++
		}
	}
}

// traffic is what a traced pass exposes to the per-layer metrics.
type traffic struct {
	outs    []outcome // every timed HTTP outcome
	ops     int
	wall    time.Duration
	servers []*obs.Registry // whisperd registries
	sim     *obs.Registry   // the sweeps' registry (sim-batch)
	gateway *obs.Registry
	ring    *cluster.Ring
	fresh   int // distinct requests sent that set-up had not executed
	before  counters
	after   counters
	// since is when the timed phases began; base holds each registry's
	// snapshot from then, so set-up traffic is left out.
	since time.Time
	base  map[*obs.Registry]obs.Snapshot
}

// registries are every registry the traffic's layers filled.
func (tf *traffic) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, r := range append([]*obs.Registry{tf.sim, tf.gateway}, tf.servers...) {
		if r != nil {
			regs = append(regs, r)
		}
	}
	return regs
}

// counters are the process-wide reuse counters the program exposes.
type counters struct {
	memo  snapshot.Stats
	sweep cpu.PoolStats
	farm  cpu.PoolStats
}

func readCounters() counters {
	return counters{memo: experiments.SnapshotMemoStats(),
		sweep: experiments.MachinePoolStats(), farm: core.FarmPoolStats()}
}

// timed brackets the timed phases: wall time, the peak RSS reached by their
// end, and (traced) the reuse counters and registry baselines.
type timed struct {
	wall0 time.Time
	c0    counters
}

func startTimed(tf *traffic) timed {
	if tf != nil {
		tf.base = map[*obs.Registry]obs.Snapshot{}
		for _, r := range tf.registries() {
			tf.base[r] = r.Snapshot()
		}
		tf.since = time.Now()
	}
	return timed{wall0: time.Now(), c0: readCounters()}
}

func (t timed) stop(p *pass, tf *traffic) error {
	p.began, p.wall = t.wall0, time.Since(t.wall0)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	p.rssMiB = rss
	if tf != nil {
		tf.before, tf.after = t.c0, readCounters()
		tf.ops, tf.wall = p.ops, p.wall
	}
	return nil
}

// digestLines is the output digest: SHA-256 over one line per output.
func digestLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sumLine(o *outcome) string {
	if o.err != nil {
		return "failed"
	}
	return hex.EncodeToString(o.sum[:])
}

// simMix is sim-batch's rotation: the ten sweeps experiments.RunAll runs,
// cheapest first at the default sizes, with mitigations and table2 twice.
// The doubled sweeps hold the 42–58 % and 83–100 % shares of the operations,
// so p50 and p90 fall inside one sweep's latencies rather than on the edge
// between two.
var simMix = []string{"condfamily", "table3", "fig1b", "fig4", "stealth", "mitigations", "mitigations",
	"noise", "kaslr", "throughput", "table2", "table2"}

// runSimBatch is the work of `tetbench -exp all` without the serving layers:
// one caller runs RunAll's sweeps back to back through experiments.RunSweep,
// at the default sizes and Parallel = nproc, in simMix's rotation, each
// sweep from the next pooled seed. One RunAll would be a single operation of
// ~0.3 s, too few per run for a supported p90.
func runSimBatch(ctx context.Context, o opts, tr *tracer, _ *refs) (*pass, *traffic, error) {
	p := &pass{}
	seeds := seedOrder(o.Seed)
	ex := experiments.Exec{Ctx: ctx, Parallel: nproc()}
	var tf *traffic
	if tr != nil {
		ex.Obs = obs.NewRegistry()
		tr.registry("experiments", ex.Obs)
		tf = &traffic{sim: ex.Obs}
	}
	params := experiments.SweepParams{}
	if o.Scale < 1 {
		params.ThroughputBytes, params.KASLRReps, params.Fig1bBatches = 1, 1, 1
	}
	op := func(i int, seed int64) outcome {
		name, sp := simMix[i%len(simMix)], params
		sp.Seed = seed
		out := outcome{start: time.Now()}
		res, err := experiments.RunSweep(ex, name, sp)
		out.end = time.Now()
		if err != nil {
			out.err = fmt.Errorf("%s seed %d: %w", name, seed, err)
			return out
		}
		out.problem = sweepProblem(res, seed)
		if i < simDigestOps {
			b, err := json.Marshal(res.Result)
			if err != nil {
				out.err = err
				return out
			}
			out.sum = sha256.Sum256(b)
		}
		return out
	}
	for r := 0; r < o.setupReps(); r++ {
		t0 := time.Now()
		for i := range simMix {
			out := op(i, warmSeed)
			if out.err != nil {
				return nil, nil, fmt.Errorf("sim-batch warm-up: %w", out.err)
			}
			if out.problem != "" {
				p.problems = append(p.problems, "warm-up: "+out.problem)
			}
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	t := startTimed(tf)
	outs := closedLoop(ctx, 1, 0, o.Duration, tr, func(_ context.Context, i int) outcome {
		return op(i, seeds[i%len(seeds)])
	})
	p.account(outs)
	if err := t.stop(p, tf); err != nil {
		return nil, nil, err
	}
	p.latOps, p.capOps = outs, outs
	var lines []string
	for i := range outs[:min(len(outs), simDigestOps)] {
		lines = append(lines, fmt.Sprintf("%d %s", i, sumLine(&outs[i])))
	}
	p.digest, p.digestN = digestLines(lines), len(lines)
	return p, tf, nil
}

// sweepProblem checks a table2 or mitigations result against the paper's
// Table 2 or mitigation matrix.
func sweepProblem(res experiments.SweepResult, seed int64) string {
	agrees := true
	switch rows := res.Result.(type) {
	case []experiments.Table2Row:
		agrees, _ = experiments.Table2Agrees(rows)
	case []experiments.MitigationRow:
		agrees, _ = experiments.MitigationsAgree(rows)
	}
	if !agrees {
		return fmt.Sprintf("%s seed %d disagrees with the paper's matrix", res.Name, seed)
	}
	return ""
}

// defaultRequests is one request per experiment at its default seed.
func defaultRequests() []server.Request {
	var reqs []server.Request
	for _, e := range servedExperiments {
		reqs = append(reqs, server.Request{Experiment: e})
	}
	return reqs
}

// coldRequests are serve-cold's requests from..to-1: request i is entry
// perm[i%len] of coldMix for a seeded permutation per block, with the i-th
// seed of the run's seed order, so no two requests share a seed.
func coldRequests(seed int64, from, to int) []server.Request {
	seeds := seedOrder(seed)
	var reqs []server.Request
	var perm []int
	for i := from; i < to; i++ {
		if i == from || i%len(coldMix) == 0 {
			perm = rngFor(seed, fmt.Sprintf("mix/%d", i/len(coldMix))).Perm(len(coldMix))
		}
		reqs = append(reqs, server.Request{Experiment: coldMix[perm[i%len(coldMix)]], Seed: seeds[i%len(seeds)]})
	}
	return reqs
}

func calls(reqs []server.Request) ([]*call, error) {
	cs := make([]*call, len(reqs))
	for i, r := range reqs {
		c, err := newCall(r)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// warmUp sends the warm-up calls one at a time and requires a correct 200 for
// each.
func warmUp(ctx context.Context, hc *http.Client, url string, cs []*call) error {
	for _, c := range cs {
		out := send(ctx, hc, url, c)
		if out.err != nil {
			return fmt.Errorf("warm-up %s: %w", c.req.Experiment, out.err)
		}
		if out.problem != "" {
			return fmt.Errorf("warm-up: %s", out.problem)
		}
	}
	return nil
}

// runServeCold keeps one whisperd at its flag defaults busy: one closed-loop
// client works through the run's request list for the whole run, every
// request a miss whose execution spreads over every core. A second client
// made each request's latency depend on which request ran beside it: on a
// 2-vCPU host, p90 spread 0.17 over eight seeds instead of 0.11.
func runServeCold(ctx context.Context, o opts, tr *tracer, refs *refs) (*pass, *traffic, error) {
	p := &pass{}
	reqs := coldRequests(o.Seed, 0, len(seedPool)-1)
	if o.Scale < 1 {
		for i, r := range reqs {
			reqs[i] = lightRequest(r.Experiment, r.Seed)
		}
	}
	list, err := calls(reqs)
	if err != nil {
		return nil, nil, err
	}
	warm, err := calls(warmRequests(o))
	if err != nil {
		return nil, nil, err
	}
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	cfg := server.Config{MaxQueue: 8, CacheEntries: server.DefaultCacheEntries}
	var b *backend
	for r := 0; r < o.setupReps(); r++ {
		t0 := time.Now()
		if b, err = startBackend("backend-1:80", cfg, nil); err != nil {
			return nil, nil, err
		}
		if err := warmUp(ctx, hc, b.url(), warm); err != nil {
			_ = b.close(ctx)
			return nil, nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if r < o.setupReps()-1 {
			hc.CloseIdleConnections()
			if err := b.close(ctx); err != nil {
				return nil, nil, err
			}
		}
	}
	var tf *traffic
	if tr != nil {
		tf = &traffic{servers: []*obs.Registry{b.srv.Obs()}}
		tr.registry("whisperd", b.srv.Obs())
	}

	t := startTimed(tf)
	outs := closedLoop(ctx, 1, len(list), o.Duration, tr, func(ctx context.Context, i int) outcome {
		return send(ctx, hc, b.url(), list[i])
	})
	p.account(outs)
	if err := t.stop(p, tf); err != nil {
		return nil, nil, err
	}
	if err := b.close(ctx); err != nil {
		return nil, nil, err
	}
	p.latOps, p.capOps = outs, outs
	if tf != nil {
		tf.outs, tf.fresh = outs, len(outs)
	}

	// One in coldCheckOne responses is compared byte for byte against a
	// direct server.Execute; which one is drawn from the seed.
	pick := rngFor(o.Seed, "check").Intn(coldCheckOne)
	var checked []outcome
	var lines []string
	for i := range outs {
		if i%coldCheckOne == pick {
			checked = append(checked, outs[i])
		}
		if i < coldDigestOps {
			lines = append(lines, fmt.Sprintf("%d %s %s", i, list[i].hash, sumLine(&outs[i])))
		}
	}
	probs, err := refs.check(ctx, checked)
	if err != nil {
		return nil, nil, err
	}
	p.problems = append(p.problems, probs...)
	p.digest, p.digestN = digestLines(lines), len(lines)
	return p, tf, nil
}

// gateKeys is the gate workloads' key set in Zipf rank order: each
// experiment of gateExperiments in turn, light, at the first gateSeeds
// pooled seeds. The ranking is the same in every run; only the draws come
// from the run's seed.
func gateKeys() []server.Request {
	var reqs []server.Request
	for _, e := range gateExperiments {
		for _, s := range seedPool[:gateSeeds] {
			reqs = append(reqs, lightRequest(e, s))
		}
	}
	return reqs
}

// zipf samples ranks 0..n-1 with P(r) proportional to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	z.cdf[n-1] = 1
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// gateInput is a gate workload's schedule: due offsets and, for each, the
// index of the key sent.
type gateInput struct {
	due  []time.Duration
	open []int
}

// gateInputs draws the open loop's arrivals and its Zipf keys from seed.
func gateInputs(seed int64, dur time.Duration, keys int) gateInput {
	in := gateInput{due: poissonArrivals(rngFor(seed, "arrivals"), gateRate, dur)}
	z := newZipf(keys, zipfS)
	draws := rngFor(seed, "keys")
	for range in.due {
		in.open = append(in.open, z.draw(draws))
	}
	return in
}

// runGate drives a gateway at whispergate's defaults over 3 backends with
// whisperd defaults except an 8-entry memory cache and a fresh disk cache
// each: an open loop at gateRate over Zipf-drawn keys for the whole run.
// slow delays backend 3's /v1/run by slowDelay.
func runGate(ctx context.Context, o opts, tr *tracer, refs *refs, slow bool) (*pass, *traffic, error) {
	p := &pass{limit: gateLimit}
	keys, err := calls(gateKeys())
	if err != nil {
		return nil, nil, err
	}
	in := gateInputs(o.Seed, o.Duration, len(keys))
	open := make([]*call, len(in.open))
	for i, k := range in.open {
		open[i] = keys[k]
	}
	warm := gateWarm(keys, in.open)

	dir, err := os.MkdirTemp(o.OutDir, "gate-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	hc := newClient(maxOpen)
	defer hc.CloseIdleConnections()
	cfg := server.Config{MaxQueue: 8, CacheEntries: gateEntries}
	var wrap func(http.Handler) http.Handler
	if slow {
		wrap = delayRuns(slowDelay)
	}
	var g *gatewayStack
	for r := 0; r < o.setupReps(); r++ {
		t0 := time.Now()
		bs, err := startBackends(3, cfg, dir, wrap)
		if err != nil {
			return nil, nil, err
		}
		if g, err = startGateway(bs, gatewayDefaults()); err != nil {
			closeAll(bs)
			return nil, nil, err
		}
		if err := warmUp(ctx, hc, g.url(), warm); err != nil {
			_ = g.close(ctx)
			return nil, nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if r < o.setupReps()-1 {
			hc.CloseIdleConnections()
			if err := g.close(ctx); err != nil {
				return nil, nil, err
			}
		}
	}
	var tf *traffic
	if tr != nil {
		tf = &traffic{gateway: g.gw.Obs(), ring: cluster.NewRing(g.names)}
		tr.registry("whispergate", g.gw.Obs())
		for _, b := range g.backends {
			tf.servers = append(tf.servers, b.srv.Obs())
			tr.registry(b.name, b.srv.Obs())
		}
	}

	t := startTimed(tf)
	openOuts := openLoop(ctx, hc, g.url(), open, in.due, tr)
	p.account(openOuts)
	if err := t.stop(p, tf); err != nil {
		return nil, nil, err
	}
	// A connection the client dialled but never sent on holds the gateway's
	// Shutdown for 5 s unless the client closes it first.
	hc.CloseIdleConnections()
	if err := g.close(ctx); err != nil {
		return nil, nil, err
	}
	p.latOps = openOuts
	if tf != nil {
		tf.outs = openOuts
	}

	// Every distinct key is compared byte for byte against a direct
	// server.Execute, through every response that carried it.
	probs, err := refs.check(ctx, openOuts)
	if err != nil {
		return nil, nil, err
	}
	p.problems = append(p.problems, probs...)
	// The digest covers the open loop's keys, a set fixed by the seed.
	byKey := map[string]string{}
	for i := range openOuts {
		h := openOuts[i].c.hash
		if s := sumLine(&openOuts[i]); byKey[h] == "" || byKey[h] == "failed" {
			byKey[h] = s
		}
	}
	var lines []string
	for h, s := range byKey {
		lines = append(lines, h+" "+s)
	}
	sort.Strings(lines)
	p.digest, p.digestN = digestLines(lines), len(lines)
	return p, tf, nil
}

// gateWarm is every key the open loop sends, once, coldest first. Sent in
// set-up, it leaves each key cached on its home backend's disk and the
// hottest in memory, so the timed phase measures a steady state of memory
// and disk hits: a first-time miss in it would hold up the hits around it
// on a 2-core host, and whether 10 % of a window's requests were held up
// decided p90.
func gateWarm(keys []*call, open []int) []*call {
	sent := make([]bool, len(keys))
	for _, k := range open {
		sent[k] = true
	}
	var warm []*call
	for k := len(keys) - 1; k >= 0; k-- {
		if sent[k] {
			warm = append(warm, keys[k])
		}
	}
	return warm
}
