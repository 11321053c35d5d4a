package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/server"
	"whisper/internal/snapshot"
	"whisper/internal/stats"
)

// probeTID is the Perfetto thread the probes' spans go on.
const probeTID = 100

// probes measure layers by timing calls into their public functions: the
// part of the per-layer ledger a workload's traffic cannot attribute from
// outside the program. Each probe is one span in the trace.
func probes(ctx context.Context, o opts, w workload, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	steps := []struct {
		name string
		run  func() error
	}{
		{"normalize_hash", func() error { return probeNormalizeHash(m, w.keys(o.Seed), o) }},
		{"envelope", func() error { return probeEnvelope(ctx, m, o) }},
		{"serving", func() error { return probeServing(ctx, m, o) }},
		{"experiments", func() error { return probeExperiments(ctx, m, o) }},
		{"boot", func() error { return probeBoot(m, o) }},
		{"core", func() error { return probeCore(m, o) }},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.name, err)
		}
		tr.span("probe "+s.name, probeTID, t0, time.Now(), nil)
	}
	return m, nil
}

// probeNormalizeHash times Request.Normalize plus Hash over the workload's
// keys, in batches; the median batch gives µs per request.
func probeNormalizeHash(m map[string]float64, keys []server.Request, o opts) error {
	const per = 200
	var xs []float64
	for b := 0; b < o.scaled(20); b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			norm, err := keys[i%len(keys)].Normalize()
			if err != nil {
				return err
			}
			_ = norm.Hash()
		}
		xs = append(xs, us(time.Since(t0))/per)
	}
	m["server.normalize_hash_us"] = stats.Median(xs)
	return nil
}

// probeEnvelope prices the envelope server.Execute wraps around a sweep:
// Execute minus experiments.RunSweep for the same request, alternating.
// table3 has the largest rendering of the mix.
func probeEnvelope(ctx context.Context, m map[string]float64, o opts) error {
	req := server.Request{Experiment: "table3", Seed: seedPool[0]}
	ex := experiments.Exec{Ctx: ctx, Parallel: nproc()}
	var exe, sweep []float64
	for i := 0; i < o.scaled(30); i++ {
		t0 := time.Now()
		if _, err := server.Execute(ctx, req, nproc(), nil); err != nil {
			return err
		}
		exe = append(exe, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := experiments.RunSweep(ex, req.Experiment, experiments.SweepParams{Seed: req.Seed}); err != nil {
			return err
		}
		sweep = append(sweep, us(time.Since(t0)))
	}
	m["server.envelope_us"] = stats.Median(exe) - stats.Median(sweep)
	return nil
}

// probeServing times the served paths against one backend of each shape:
// memory hits direct and through a one-backend gateway (the difference is
// the hop), disk hits forced by alternating two keys over a one-entry memory
// tier, and a served miss against a direct Execute of the same experiment.
func probeServing(ctx context.Context, m map[string]float64, o opts) error {
	dir, err := os.MkdirTemp(o.OutDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bs, err := startBackends(1, server.Config{MaxQueue: 8, CacheEntries: 1}, dir, nil)
	if err != nil {
		return err
	}
	g, err := startGateway(bs, gatewayDefaults())
	if err != nil {
		closeAll(bs)
		return err
	}
	defer func() { _ = g.close(ctx) }()
	cold, err := startBackend("backend-cold:80", server.Config{MaxQueue: 8, CacheEntries: server.DefaultCacheEntries}, nil)
	if err != nil {
		return err
	}
	defer func() { _ = cold.close(ctx) }()
	hc := newClient(1)
	defer hc.CloseIdleConnections()

	get := func(url string, c *call, want string) (float64, error) {
		out := send(ctx, hc, url, c)
		switch {
		case out.err != nil:
			return 0, out.err
		case out.problem != "":
			return 0, fmt.Errorf("%s", out.problem)
		case out.cache != want:
			return 0, fmt.Errorf("%s seed %d: X-Whisper-Cache %q, want %q", c.req.Experiment, c.req.Seed, out.cache, want)
		}
		return us(out.end.Sub(out.start)), nil
	}
	a, err := newCall(server.Request{Experiment: "fig4", Seed: seedPool[0]})
	if err != nil {
		return err
	}
	b, err := newCall(server.Request{Experiment: "fig4", Seed: seedPool[1]})
	if err != nil {
		return err
	}
	n := o.scaled(200)
	if _, err := get(bs[0].url(), a, "miss"); err != nil {
		return err
	}
	var direct, hop, disk []float64
	for i := 0; i < n; i++ {
		d, err := get(bs[0].url(), a, "hit")
		if err != nil {
			return err
		}
		h, err := get(g.url(), a, "hit")
		if err != nil {
			return err
		}
		direct, hop = append(direct, d), append(hop, h)
	}
	m["server.hit_us_p50"] = stats.Median(direct)
	m["cluster.hop_us_p50"] = stats.Median(hop) - stats.Median(direct)

	if _, err := get(bs[0].url(), b, "miss"); err != nil {
		return err
	}
	diskHits := func() uint64 { return bs[0].srv.Obs().Counter("server.cache.hits", obs.L("tier", "disk")).Value() }
	before := diskHits()
	for i := 0; i < n; i++ {
		for _, c := range []*call{a, b} {
			d, err := get(bs[0].url(), c, "hit")
			if err != nil {
				return err
			}
			disk = append(disk, d)
		}
	}
	if got := diskHits() - before; got != uint64(len(disk)) {
		return fmt.Errorf("%d of %d alternating hits came from disk", got, len(disk))
	}
	m["server.disk_hit_us_p50"] = stats.Median(disk)

	var served, exec []float64
	for i := 0; i < o.scaled(10); i++ {
		c, err := newCall(server.Request{Experiment: "table3", Seed: seedPool[10+2*i]})
		if err != nil {
			return err
		}
		s, err := get(cold.url(), c, "miss")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := server.Execute(ctx, server.Request{Experiment: "table3", Seed: seedPool[11+2*i]}, 0, nil); err != nil {
			return err
		}
		served, exec = append(served, s/1e3), append(exec, ms(time.Since(t0)))
	}
	m["server.serve_overhead_ms"] = stats.Median(served) - stats.Median(exec)
	return nil
}

// probeExperiments runs each of the twelve served experiments once,
// serially, at Parallel=nproc, through the layer that implements it: at the
// default sizes, or (scaled down) at lightRequest's.
func probeExperiments(ctx context.Context, m map[string]float64, o opts) error {
	ex := experiments.Exec{Ctx: ctx, Parallel: nproc()}
	kcfg := kernel.Config{KASLR: true}
	for _, e := range servedExperiments {
		r := server.Request{Experiment: e, Seed: seedPool[0]}
		if o.Scale < 1 {
			r = lightRequest(e, r.Seed)
		}
		norm, err := r.Normalize()
		if err != nil {
			return err
		}
		model, _ := server.ModelByName(norm.CPU)
		t0 := time.Now()
		switch e {
		case "attacks":
			_, err = experiments.AttackSuite(ex, model, kcfg, []byte(norm.Secret), norm.Seed, norm.Attacks)
		case "leak":
			f := &core.Farm{Model: model, Config: kcfg, RootSeed: norm.Seed, Parallel: nproc(), Ctx: ctx}
			_, err = f.LeakSecret([]byte(norm.Secret))
		default:
			_, err = experiments.RunSweep(ex, e, experiments.SweepParams{Seed: norm.Seed,
				ThroughputBytes: norm.ThroughputBytes, KASLRReps: norm.KASLRReps, Fig1bBatches: norm.Fig1bBatches})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		m["experiments.run_ms."+e] = ms(time.Since(t0))
	}
	return nil
}

// probeBoot times the four ways to get a booted machine: booting a fresh
// machine, rebooting a used one, capturing a snapshot of a booted kernel,
// and forking that snapshot into a pooled machine.
func probeBoot(m map[string]float64, o opts) error {
	model, cfg, seed := cpu.I7_7700(), kernel.Config{KASLR: true}, seedPool[0]
	used, err := cpu.NewMachine(model, seed)
	if err != nil {
		return err
	}
	pool := cpu.NewPool()
	var boot, reboot, capture, fork []float64
	for i := 0; i < o.scaled(30); i++ {
		fresh, err := cpu.NewMachine(model, seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		k, err := kernel.Boot(fresh, cfg)
		if err != nil {
			return err
		}
		boot = append(boot, us(time.Since(t0)))

		t0 = time.Now()
		if _, err := kernel.Reboot(used, cfg, seed); err != nil {
			return err
		}
		reboot = append(reboot, us(time.Since(t0)))

		t0 = time.Now()
		snap, err := snapshot.CaptureKernel(k)
		if err != nil {
			return err
		}
		capture = append(capture, us(time.Since(t0)))

		// The first fork of each snapshot warms the pooled target; the
		// second is the steady state the memo serves.
		for j := 0; j < 2; j++ {
			t0 = time.Now()
			fk, err := snap.ForkKernel(pool)
			if err != nil {
				return err
			}
			d := time.Since(t0)
			pool.Put(fk.Machine())
			if j == 1 {
				fork = append(fork, us(d))
			}
		}
	}
	m["kernel.boot_us"] = stats.Median(boot)
	m["kernel.reboot_us"] = stats.Median(reboot)
	m["snapshot.capture_us"] = stats.Median(capture)
	m["snapshot.fork_us"] = stats.Median(fork)
	return nil
}

// probeCore times the TET probe gadget on a booted i7-7700 (TSX) and
// i9-13900K (signal suppression): host µs per probe, and simulated cycles
// per host second.
func probeCore(m map[string]float64, o opts) error {
	const per = 100
	for _, c := range []struct {
		name  string
		model cpu.Model
	}{{"i7-7700", cpu.I7_7700()}, {"i9-13900K", cpu.I9_13900K()}} {
		mc, err := cpu.NewMachine(c.model, seedPool[0])
		if err != nil {
			return err
		}
		if _, err := kernel.Boot(mc, kernel.Config{KASLR: true}); err != nil {
			return err
		}
		pr, err := core.NewProber(mc, core.SuppressTSX, true)
		if err != nil {
			return err
		}
		for i := 0; i < per; i++ {
			if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
				return err
			}
		}
		var perProbe []float64
		var cycles uint64
		var host time.Duration
		for b := 0; b < o.scaled(20); b++ {
			c0, t0 := mc.Pipe.Cycle(), time.Now()
			for i := 0; i < per; i++ {
				if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
					return err
				}
			}
			d := time.Since(t0)
			perProbe = append(perProbe, us(d)/per)
			cycles += mc.Pipe.Cycle() - c0
			host += d
		}
		if c.name == "i7-7700" {
			m["core.probe_us"] = stats.Median(perProbe)
		}
		m["core.sim_mcycles_per_s."+c.name] = float64(cycles) / host.Seconds() / 1e6
	}
	return nil
}
