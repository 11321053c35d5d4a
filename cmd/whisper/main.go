// Command whisper runs a single Whisper attack on a chosen CPU model and
// prints what leaked. It is the interactive front door to the library; the
// full evaluation lives in cmd/tetbench. With -all, every attack family runs
// as one scheduler job on its own machine (seeded per attack name), so the
// combined output is byte-identical at any -parallel setting. With -remote,
// the request is served by a whisperd daemon instead of executed locally,
// possibly from the daemon's content-addressed cache. The daemon runs every
// attack as its block of the -all suite, so a served -all prints the local
// -all bytes after the "machine:" line, while a served single attack differs
// from a local one, which boots on -seed itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"whisper/internal/cli"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
	"whisper/internal/server/client"
	"whisper/internal/smt"
	"whisper/internal/stats"
	"whisper/internal/trace"
)

func main() {
	var (
		attack   = flag.String("attack", "md", "attack: cc|md|zbl|rsb|v1|kaslr|smt")
		all      = flag.Bool("all", false, "run every attack family (ignores -attack)")
		cpuName  = flag.String("cpu", "Kaby Lake", "CPU model (microarchitecture or full name)")
		secret   = flag.String("secret", "squeamish ossifrage", "victim secret to plant and leak")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Int("parallel", 0, "sched workers for -all (<=0: GOMAXPROCS); output is identical at any setting")
		kpti     = flag.Bool("kpti", false, "enable KPTI")
		flare    = flag.Bool("flare", false, "enable FLARE")
		docker   = flag.Bool("docker", false, "run the attacker inside a container")
		showWin  = flag.Bool("trace", false, "after the attack, render one probe's pipeline diagram")
		remote   = flag.String("remote", "", "serve the request from the whisperd daemon at this address instead of executing locally")

		logLevel   = flag.String("log-level", "warn", "minimum level for structured client/daemon events on stderr: debug, info, warn, error")
		logFormat  = flag.String("log-format", logging.FormatText, "structured event format: text or json")
		traceOut   = flag.String("trace-out", "", "write a Perfetto/Chrome trace of the run to this file")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot to this file (.json JSON, .prom Prometheus, else text)")
	)
	flag.Parse()

	model, ok := server.ModelByName(*cpuName)
	if !ok {
		fmt.Fprintf(os.Stderr, "whisper: unknown CPU %q; options:\n", *cpuName)
		for _, m := range cpu.AllModels() {
			fmt.Fprintf(os.Stderr, "  %q (%s)\n", m.Microarch, m.Name)
		}
		os.Exit(2)
	}
	cfg := kernel.Config{KASLR: true, KPTI: *kpti, FLARE: *flare, Docker: *docker}

	if *remote != "" {
		ctx, stop := cli.SignalContext(context.Background())
		defer stop()
		log, err := logging.New(logging.Options{Level: *logLevel, Format: *logFormat, Output: os.Stderr})
		if err != nil {
			fatal(err)
		}
		req := server.Request{
			Experiment: "attacks",
			Seed:       *seed,
			CPU:        *cpuName,
			Secret:     *secret,
			KPTI:       *kpti, FLARE: *flare, Docker: *docker,
		}
		if !*all {
			req.Attacks = []string{*attack}
		}
		cl := client.New(*remote)
		cl.Log = log
		res, _, cachePath, err := cl.Run(ctx, req)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "whisper: served by %s (cache: %s, hash %.12s…)\n", *remote, cachePath, res.Hash)
		fmt.Print(res.Rendered)
		return
	}

	if *all {
		ctx, stop := cli.SignalContext(context.Background())
		defer stop()
		var reg *obs.Registry
		if *traceOut != "" || *metricsOut != "" {
			reg = obs.NewRegistry()
		}
		fmt.Printf("machine: %s (%s), all attack families, seed %d\n", model.Name, model.Microarch, *seed)
		ex := experiments.Exec{Ctx: ctx, Parallel: *parallel, Obs: reg}
		out, err := experiments.AttackSuite(ex, model, cfg, []byte(*secret), *seed, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if *traceOut != "" {
			if err := reg.WriteTraceFile(*traceOut, nil); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}
		if *metricsOut != "" {
			if err := reg.WriteMetricsFile(*metricsOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
		}
		return
	}

	m, err := cpu.NewMachine(model, *seed)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" || *metricsOut != "" {
		// Observability stays nil (zero-overhead) unless an output was asked
		// for. Enable before Boot so the kernel.boot span lands on the trace.
		m.EnableObs()
	}
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		fatal(err)
	}
	want := []byte(*secret)
	fmt.Printf("machine: %s (%s), KASLR base %#x (hidden from the attack)\n",
		model.Name, model.Microarch, k.KASLRBase())

	report := func(name string, res core.LeakResult) {
		fmt.Printf("%s leaked %q\n", name, res.Data)
		fmt.Printf("  throughput %.1f B/s, byte error rate %.1f%%, %d simulated cycles (%.4fs at %.1f GHz)\n",
			res.Bps, stats.ByteErrorRate(res.Data, want)*100, res.Cycles,
			m.Seconds(res.Cycles), model.ClockHz/1e9)
	}

	switch *attack {
	case "md":
		k.WriteSecret(want)
		a, err := core.NewTETMeltdown(k)
		if err != nil {
			fatal(err)
		}
		res, err := a.Leak(k.SecretVA(), len(want))
		if err != nil {
			fatal(err)
		}
		report("TET-Meltdown", res)
	case "zbl":
		k.WriteSecret(want)
		a, err := core.NewTETZombieload(k)
		if err != nil {
			fatal(err)
		}
		res, err := a.Leak(len(want))
		if err != nil {
			fatal(err)
		}
		report("TET-Zombieload", res)
	case "rsb":
		secretVA := uint64(kernel.UserDataBase + 0x500)
		pa, ok := k.UserAS().Translate(secretVA)
		if !ok {
			fatal(fmt.Errorf("secret VA unmapped"))
		}
		m.Phys.StoreBytes(pa, want)
		a, err := core.NewTETRSB(k)
		if err != nil {
			fatal(err)
		}
		res, err := a.Leak(secretVA, len(want))
		if err != nil {
			fatal(err)
		}
		report("TET-Spectre-RSB", res)
	case "v1":
		v1, err := core.NewTETSpectreV1(k)
		if err != nil {
			fatal(err)
		}
		pa, ok := k.UserAS().Translate(v1.ArrayVA() + v1.ArrayLen())
		if !ok {
			fatal(fmt.Errorf("V1 secret region unmapped"))
		}
		m.Phys.StoreBytes(pa, want)
		res, err := v1.Leak(v1.ArrayLen(), len(want))
		if err != nil {
			fatal(err)
		}
		report("TET-Spectre-V1 (extension)", res)
	case "cc":
		a, err := core.NewTETCovertChannel(k)
		if err != nil {
			fatal(err)
		}
		res, err := a.Transfer(want)
		if err != nil {
			fatal(err)
		}
		report("TET covert channel", res)
	case "smt":
		a, err := smt.NewChannel(k, smt.ModeReliable)
		if err != nil {
			fatal(err)
		}
		res, err := a.Transfer(want[:min(len(want), 4)])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("SMT covert channel received %q (%.2f B/s, bit error %.1f%%)\n",
			res.Data, res.Bps, stats.BitErrorRate(res.Data, want[:len(res.Data)])*100)
	case "kaslr":
		a, err := core.NewTETKASLR(k)
		if err != nil {
			fatal(err)
		}
		res, err := a.Locate()
		if err != nil {
			fatal(err)
		}
		verdict := "WRONG"
		if res.Base == k.KASLRBase() {
			verdict = "correct"
		}
		fmt.Printf("TET-KASLR recovered base %#x (slot %d) in %.4f s — %s\n",
			res.Base, res.Slot, res.Seconds, verdict)
	default:
		fmt.Fprintf(os.Stderr, "whisper: unknown attack %q\n", *attack)
		os.Exit(2)
	}

	if *showWin {
		if err := renderWindow(k); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := m.Obs.WriteTraceFile(*traceOut, nil); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := m.Obs.WriteMetricsFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
}

// renderWindow runs one traced TET probe and prints its pipeline diagram —
// the transient window the attack just timed.
func renderWindow(k *kernel.Kernel) error {
	m := k.Machine()
	pr, err := core.NewProber(m, core.SuppressTSX, true)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ { // steady state
		if _, err := pr.Probe(core.UnmappedVA, 256, 0); err != nil {
			return err
		}
	}
	c := trace.NewCollector(0)
	c.Attach(m.Pipe)
	defer func() {
		// Hand the pipeline back to the obs registry's collector if one is
		// live (-trace-out), otherwise detach tracing entirely.
		if m.Obs != nil {
			m.Obs.AttachPipeline(m.Pipe)
		} else {
			m.Pipe.SetTracer(nil)
		}
	}()
	tote, err := pr.Probe(core.UnmappedVA, 1, 1) // triggered probe
	if err != nil {
		return err
	}
	fmt.Printf("\none traced probe (Jcc triggered, ToTE = %d cycles):\n", tote)
	fmt.Print(trace.Render(c.Records(), 88))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whisper:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
