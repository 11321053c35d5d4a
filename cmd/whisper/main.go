// Command whisper runs a single Whisper attack on a chosen CPU model and
// prints what leaked. It is the interactive front door to the library; the
// full evaluation lives in cmd/tetbench. Every family runs through
// experiments.RunAttack: -attack on the one machine it boots from -seed, and
// -all (experiments.AttackSuite) as one scheduler job per family on its own
// machine (seeded per attack name), so the combined output is byte-identical
// at any -parallel setting. With -remote, the request is served by a
// whisperd daemon instead of executed locally, possibly from the daemon's
// content-addressed cache. The daemon runs every attack as its block of the
// -all suite, so a served -all prints the local -all bytes after the
// "machine:" line, while a served single attack differs from a local one,
// which boots on -seed itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"whisper/internal/cli"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
	"whisper/internal/server/client"
	"whisper/internal/trace"
)

// attackList names every attack family, in block order, for -attack's help
// and its unknown-name error.
var attackList = strings.Join(experiments.AttackNames(), "|")

func main() {
	var (
		attack   = flag.String("attack", "md", "attack: "+attackList)
		all      = flag.Bool("all", false, "run every attack family (ignores -attack)")
		cpuName  = flag.String("cpu", server.DefaultCPU, "CPU model (microarchitecture or full name)")
		secret   = flag.String("secret", server.DefaultSecret, "victim secret to plant and leak")
		seed     = flag.Int64("seed", server.DefaultAttackSeed, "deterministic seed")
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
		writeTelemetry(reg, *traceOut, *metricsOut)
		return
	}

	if !slices.Contains(experiments.AttackNames(), *attack) {
		fmt.Fprintf(os.Stderr, "whisper: unknown attack %q (have %s)\n", *attack, attackList)
		os.Exit(2)
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
	fmt.Printf("machine: %s (%s), KASLR base %#x (hidden from the attack)\n",
		model.Name, model.Microarch, k.KASLRBase())
	out, err := experiments.RunAttack(k, *attack, []byte(*secret))
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
	if *showWin {
		if err := renderWindow(k); err != nil {
			fatal(err)
		}
	}
	writeTelemetry(m.Obs, *traceOut, *metricsOut)
}

// writeTelemetry writes the run's trace and metrics files, if asked for,
// and says so on stderr so stdout stays the attack output alone.
func writeTelemetry(reg *obs.Registry, traceOut, metricsOut string) {
	if traceOut != "" {
		if err := reg.WriteTraceFile(traceOut, nil); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", traceOut)
	}
	if metricsOut != "" {
		if err := reg.WriteMetricsFile(metricsOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsOut)
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
