package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"whisper/internal/obs"
)

// layerMetrics names every per-layer metric a traced run reports, with its
// unit. Each is measured on every workload; a layer the workload does not
// exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.normalize_hash_us", "us"},
	{"server.envelope_us", "us"},
	{"server.serve_overhead_ms", "ms"},
	{"server.hit_us_p50", "us"},
	{"server.disk_hit_us_p50", "us"},
	{"server.hit_frac", "frac"},
	{"server.disk_hit_frac", "frac"},
	{"server.coalesced_frac", "frac"},
	{"server.queue_rejected", "count"},
	{"experiments.run_ms.table2", "ms"},
	{"experiments.run_ms.kaslr", "ms"},
	{"experiments.run_ms.leak", "ms"},
	{"experiments.run_ms.attacks", "ms"},
	{"experiments.run_ms.throughput", "ms"},
	{"experiments.run_ms.fig1b", "ms"},
	{"experiments.run_ms.fig4", "ms"},
	{"experiments.run_ms.mitigations", "ms"},
	{"experiments.run_ms.stealth", "ms"},
	{"experiments.run_ms.condfamily", "ms"},
	{"experiments.run_ms.noise", "ms"},
	{"experiments.run_ms.table3", "ms"},
	{"sched.job_us_p50", "us"},
	{"sched.job_us_p99", "us"},
	{"sched.queue_us_p50", "us"},
	{"sched.jobs_per_op", "1/op"},
	{"sched.busy_frac", "frac"},
	{"kernel.boot_us", "us"},
	{"kernel.reboot_us", "us"},
	{"snapshot.capture_us", "us"},
	{"snapshot.fork_us", "us"},
	{"snapshot.memo_hit_frac", "frac"},
	{"snapshot.boots_per_op", "1/op"},
	{"snapshot.memo_resident_mb", "MiB"},
	{"cpu.pool_reuse_frac.sweep", "frac"},
	{"cpu.pool_reuse_frac.farm", "frac"},
	{"core.probe_us", "us"},
	{"core.sim_mcycles_per_s.i7-7700", "mcycles/s"},
	{"core.sim_mcycles_per_s.i9-13900K", "mcycles/s"},
	{"pipeline.cum_frac.fetch", "frac"},
	{"pipeline.cum_frac.issue", "frac"},
	{"pipeline.cum_frac.execute", "frac"},
	{"pipeline.cum_frac.complete", "frac"},
	{"pipeline.cum_frac.retire", "frac"},
	{"pipeline.cum_frac.skip", "frac"},
	{"prof.flat_frac.pipeline", "frac"},
	{"prof.flat_frac.mem", "frac"},
	{"prof.flat_frac.tlb", "frac"},
	{"prof.flat_frac.paging", "frac"},
	{"prof.flat_frac.bpu", "frac"},
	{"prof.flat_frac.kernel", "frac"},
	{"prof.flat_frac.snapshot", "frac"},
	{"prof.flat_frac.server", "frac"},
	{"prof.flat_frac.cluster", "frac"},
	{"prof.flat_frac.net_http", "frac"},
	{"prof.flat_frac.encoding_json", "frac"},
	{"prof.flat_frac.runtime", "frac"},
	{"cluster.hop_us_p50", "us"},
	{"cluster.home_frac", "frac"},
	{"cluster.hedge_fired_frac", "frac"},
	{"cluster.hedge_won_frac", "frac"},
	{"cluster.retries", "count"},
	{"cluster.ejections", "count"},
	{"cluster.wasted_exec_frac", "frac"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"obs.trace_overhead_frac", "frac"},
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// trafficLayers derives the per-layer metrics a traced pass's own traffic
// determines: response headers, and the timed phases' deltas of the
// registries the program fills and of its memo and machine-pool counters.
func trafficLayers(tf *traffic) map[string]float64 {
	m := map[string]float64{}
	ops := float64(tf.ops)

	var okN, hits, coalesced, routed, home float64
	for i := range tf.outs {
		o := &tf.outs[i]
		if !o.ok() {
			continue
		}
		okN++
		switch o.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
		if tf.ring != nil && o.backend != "" {
			routed++
			if want, _ := tf.ring.Pick(o.c.hash); want == o.backend {
				home++
			}
		}
	}
	m["server.hit_frac"] = frac(hits, okN)
	m["server.coalesced_frac"] = frac(coalesced, okN)
	m["cluster.home_frac"] = frac(home, routed)

	var memHits, diskHits, misses, rejected, execs, jobs, busyUS, queueSum, queueN float64
	var jobUS []float64
	for _, reg := range append([]*obs.Registry{tf.sim}, tf.servers...) {
		if reg == nil {
			continue
		}
		snap := reg.Snapshot().Delta(tf.base[reg])
		for k, v := range snap.Counters {
			f := float64(v)
			switch {
			case k == "server.cache.hits{tier=memory}":
				memHits += f
			case k == "server.cache.hits{tier=disk}":
				diskHits += f
			case k == "server.cache.misses":
				misses += f
			case k == "server.queue.rejected":
				rejected += f
			case strings.HasPrefix(k, "server.responses{") && strings.Contains(k, "cache=miss"):
				execs += f
			case strings.HasPrefix(k, "sched.jobs.done{"):
				jobs += f
			case strings.HasPrefix(k, "sched.worker.busy.us{"):
				busyUS += f
			}
		}
		for k, h := range snap.Histograms {
			if strings.HasPrefix(k, "sched.queue.latency.us{") {
				queueSum += float64(h.P50) * float64(h.N)
				queueN += float64(h.N)
			}
		}
		// Every wall span in these registries other than the server's
		// per-request span is one sched job.
		for _, sp := range reg.Spans() {
			if strings.HasPrefix(sp.Name, "server.") || sp.StartWall.Before(tf.since) || sp.EndWall.IsZero() {
				continue
			}
			jobUS = append(jobUS, us(sp.EndWall.Sub(sp.StartWall)))
		}
	}
	m["server.disk_hit_frac"] = frac(diskHits, memHits+diskHits+misses)
	m["server.queue_rejected"] = rejected
	if len(jobUS) > 0 {
		m["sched.job_us_p50"] = percentile(jobUS, 0.5)
		m["sched.job_us_p99"] = percentile(jobUS, 0.99)
	}
	m["sched.queue_us_p50"] = frac(queueSum, queueN)
	m["sched.jobs_per_op"] = frac(jobs, ops)
	m["sched.busy_frac"] = frac(busyUS, float64(nproc())*us(tf.wall))
	m["cluster.wasted_exec_frac"] = frac(max(execs-float64(tf.fresh), 0), ops)

	b, a := tf.before, tf.after
	dHits, dMisses := float64(a.memo.Hits-b.memo.Hits), float64(a.memo.Misses-b.memo.Misses)
	m["snapshot.memo_hit_frac"] = frac(dHits, dHits+dMisses)
	m["snapshot.boots_per_op"] = frac(dMisses, ops)
	m["snapshot.memo_resident_mb"] = float64(a.memo.ResidentBytes) / (1 << 20)
	m["cpu.pool_reuse_frac.sweep"] = frac(float64(a.sweep.Reuses-b.sweep.Reuses), float64(a.sweep.Gets-b.sweep.Gets))
	m["cpu.pool_reuse_frac.farm"] = frac(float64(a.farm.Reuses-b.farm.Reuses), float64(a.farm.Gets-b.farm.Gets))

	if tf.gateway != nil {
		var fired, won, retries, ejections, requests float64
		for k, v := range tf.gateway.Snapshot().Delta(tf.base[tf.gateway]).Counters {
			f := float64(v)
			switch {
			case k == "gate.hedges.fired":
				fired += f
			case k == "gate.hedges.won":
				won += f
			case strings.HasPrefix(k, "gate.retries{"):
				retries += f
			case strings.HasPrefix(k, "gate.ejections{"):
				ejections += f
			case strings.HasPrefix(k, "gate.requests{"):
				requests += f
			}
		}
		m["cluster.hedge_fired_frac"] = frac(fired, requests)
		m["cluster.hedge_won_frac"] = frac(won, fired)
		m["cluster.retries"] = retries
		m["cluster.ejections"] = ejections
	}
	return m
}

// pipelineStages maps each pipeline.cum_frac metric to the simulator
// functions that implement the stage.
var pipelineStages = map[string][]string{
	"fetch":    {"(*Pipeline).fetch"},
	"issue":    {"(*Pipeline).issue"},
	"execute":  {"(*Pipeline).execute"},
	"complete": {"(*Pipeline).complete"},
	"retire":   {"(*Pipeline).retire"},
	"skip":     {"(*Pipeline).skipIdle", "(*Pipeline).skipFrozen"},
}

// profilePackages maps each prof.flat_frac metric to its Go package.
var profilePackages = map[string]string{
	"pipeline": "whisper/internal/pipeline", "mem": "whisper/internal/mem",
	"tlb": "whisper/internal/tlb", "paging": "whisper/internal/paging",
	"bpu": "whisper/internal/bpu", "kernel": "whisper/internal/kernel",
	"snapshot": "whisper/internal/snapshot", "server": "whisper/internal/server",
	"cluster": "whisper/internal/cluster", "net_http": "net/http",
	"encoding_json": "encoding/json", "runtime": "runtime",
}

// profileLayers reads a CPU profile with `go tool pprof -top` and returns
// each pipeline stage's cumulative share and each package's flat share of
// the profiled CPU time.
func profileLayers(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-cum", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	rows, err := parsePprofTop(out)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for stage, fns := range pipelineStages {
		for _, fn := range fns {
			m["pipeline.cum_frac."+stage] += rows[profilePackages["pipeline"]+"."+fn].cum
		}
	}
	for name := range profilePackages {
		m["prof.flat_frac."+name] = 0
	}
	for fn, r := range rows {
		for name, pkg := range profilePackages {
			if funcPackage(fn) == pkg {
				m["prof.flat_frac."+name] += r.flat
			}
		}
	}
	return m, nil
}

type pprofRow struct{ flat, cum float64 } // shares of the profile total

// parsePprofTop reads `pprof -top` text: after the header, rows of
// "flat flat% sum% cum cum% function".
func parsePprofTop(out []byte) (map[string]pprofRow, error) {
	rows := map[string]pprofRow{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := parsePercent(f[1])
		cum, err2 := parsePercent(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof row %q: unreadable shares", sc.Text())
		}
		fn := strings.Join(f[5:], " ")
		r := rows[fn]
		rows[fn] = pprofRow{flat: r.flat + flat, cum: max(r.cum, cum)}
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no table:\n%s", out)
	}
	return rows, sc.Err()
}

func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// funcPackage is the import path of a symbol from a profile:
// "whisper/internal/pipeline.(*Pipeline).fetch" → "whisper/internal/pipeline".
// Type arguments ("sched.Map[...]") may hold slashes of their own, so they
// are cut first.
func funcPackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// tracer records wall-time spans from the benchmark's own side of each call
// into the system — one per operation and one per probe — and collects the
// program's registries, and writes all of them as one Perfetto trace. A nil
// tracer records nothing, which is the untraced pass.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []obs.TraceEvent
	regs   []namedRegistry
}

type namedRegistry struct {
	name string
	reg  *obs.Registry
}

// Perfetto process IDs: the benchmark's own spans, then one per registry.
const (
	benchPID    = 1
	registryPID = 100
)

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) registry(name string, reg *obs.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.regs = append(t.regs, namedRegistry{name, reg})
	t.mu.Unlock()
}

func (t *tracer) span(name string, tid int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	ev := obs.TraceEvent{Name: name, Cat: "bench", Ph: obs.PhaseComplete, PID: benchPID, TID: tid,
		TS: us(start.Sub(t.epoch)), Dur: max(us(end.Sub(start)), 1), Args: args}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// op records one load-generator operation.
func (t *tracer) op(loop string, tid int, o *outcome) {
	if t == nil {
		return
	}
	name := loop
	args := map[string]any{"idx": o.idx, "lag_ms": o.lagMS()}
	if o.c != nil {
		name = loop + " " + o.c.req.Experiment
		args["seed"] = o.c.req.Seed
		args["hash"] = o.c.hash
		args["cache"] = o.cache
		if o.backend != "" {
			args["backend"] = o.backend
		}
	}
	if o.err != nil {
		args["error"] = o.err.Error()
	}
	t.span(name, tid, o.start, o.end, args)
}

// write exports the benchmark's spans and every registry's wall spans, all
// on the benchmark's clock, as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta := func(pid int, label string) obs.TraceEvent {
		return obs.TraceEvent{Name: "process_name", Ph: obs.PhaseMetadata, PID: pid, Args: map[string]any{"name": label}}
	}
	events := []obs.TraceEvent{meta(benchPID, "bench: load generator and probes")}
	events = append(events, t.events...)
	for i, nr := range t.regs {
		pid := registryPID + i
		events = append(events, meta(pid, nr.name))
		for _, sp := range nr.reg.Spans() {
			if sp.StartWall.IsZero() || sp.EndWall.IsZero() {
				continue
			}
			args := map[string]any{"id": sp.ID, "parent": sp.Parent}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			events = append(events, obs.TraceEvent{Name: sp.Name, Cat: "span", Ph: obs.PhaseComplete, PID: pid,
				TID: obs.TIDSpans, TS: us(sp.StartWall.Sub(t.epoch)), Dur: max(us(sp.EndWall.Sub(sp.StartWall)), 1), Args: args})
		}
	}
	b, err := json.Marshal(obs.TraceFile{TraceEvents: events, DisplayTimeUnit: "ms",
		OtherData: map[string]string{"generator": "whisper bench"}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
