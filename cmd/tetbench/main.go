// Command tetbench regenerates the paper's tables and figures on the
// simulated machines. Each -exp value corresponds to one artefact of the
// evaluation; "all" runs everything (see EXPERIMENTS.md for the index).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"whisper/internal/cli"
	"whisper/internal/experiments"
	"whisper/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all|table1|table2|table3|fig1b|fig3|fig4|throughput|kaslr|mitigations|stealth|condfamily|noise")
		seed     = flag.Int64("seed", experiments.DefaultSeed, "deterministic seed")
		bytes    = flag.Int("bytes", 32, "payload size for throughput experiments")
		reps     = flag.Int("reps", 16, "probes per KASLR candidate slot")
		parallel = flag.Int("parallel", 0, "sched workers per sweep (<=0: GOMAXPROCS); output is identical at any setting")
		asJSON   = flag.Bool("json", false, "run everything and emit one JSON report to stdout")

		traceOut   = flag.String("trace-out", "", "write a Perfetto/Chrome trace of the run to this file")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot to this file (.json JSON, .prom Prometheus, else text)")
	)
	flag.Parse()

	// Ctrl-C cancels the scheduler pools: pending cells are dropped, running
	// ones drain, and the run exits with the context error. A second Ctrl-C
	// skips the drain and exits immediately.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	// Each experiment crosses several simulated machines, so tetbench records
	// wall-clock stage spans; nil (no flag) keeps the runs uninstrumented.
	var reg *obs.Registry
	if *traceOut != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	ex := experiments.Exec{Ctx: ctx, Parallel: *parallel, Obs: reg}
	writeOutputs := func() {
		if *traceOut != "" {
			if err := reg.WriteTraceFile(*traceOut, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tetbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}
		if *metricsOut != "" {
			if err := reg.WriteMetricsFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "tetbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
		}
	}

	if *asJSON {
		params := experiments.DefaultReportParams()
		params.Seed = *seed
		params.ThroughputBytes = *bytes
		params.KASLRReps = *reps
		params.Parallel = *parallel
		params.Ctx = ctx
		params.Obs = reg
		report, err := experiments.RunAll(params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetbench:", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tetbench:", err)
			os.Exit(1)
		}
		writeOutputs()
		return
	}

	var names []string // every -exp value run registers, in order
	run := func(name string, f func() error) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		sp := reg.StartWallSpan("tetbench." + name)
		err := f()
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tetbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		reg.Counter("tetbench.experiments").Inc()
	}

	run("table1", func() error {
		fmt.Println(experiments.Table1())
		return nil
	})
	run("table2", func() error {
		rows, err := experiments.Table2(ex, experiments.DefaultTable2Params(), *seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(rows))
		if ok, diffs := experiments.Table2Agrees(rows); ok {
			fmt.Println("all decided cells match the paper")
		} else {
			fmt.Println("DEVIATIONS:", diffs)
		}
		fmt.Println()
		return nil
	})
	// The generic sweeps run through the same registry the whisperd daemon
	// serves (experiments.RunSweep), so the CLI and a daemon response render
	// the same bytes by construction.
	runSweep := func(name string, p experiments.SweepParams) {
		run(name, func() error {
			sr, err := experiments.RunSweep(ex, name, p)
			if err != nil {
				return err
			}
			fmt.Println(sr.Rendered)
			return nil
		})
	}

	runSweep("table3", experiments.SweepParams{Seed: *seed})
	runSweep("fig1b", experiments.SweepParams{Seed: *seed, Fig1bBatches: 8})
	run("fig3", func() error {
		s, err := experiments.Fig3(*seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable3([]experiments.Table3Scene{s}))
		return nil
	})
	runSweep("fig4", experiments.SweepParams{Seed: *seed})
	runSweep("throughput", experiments.SweepParams{Seed: *seed, ThroughputBytes: *bytes})
	runSweep("kaslr", experiments.SweepParams{Seed: *seed, KASLRReps: *reps})
	run("mitigations", func() error {
		rows, err := experiments.Mitigations(ex, *seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMitigations(rows))
		if ok, diffs := experiments.MitigationsAgree(rows); ok {
			fmt.Println("all cells match the paper's §6 discussion")
		} else {
			fmt.Println("DEVIATIONS:", diffs)
		}
		fmt.Println()
		return nil
	})
	runSweep("stealth", experiments.SweepParams{Seed: *seed})
	runSweep("condfamily", experiments.SweepParams{Seed: *seed})
	runSweep("noise", experiments.SweepParams{Seed: *seed})
	if *exp != "all" && !slices.Contains(names, *exp) {
		// Nothing ran: every step skips an -exp that is not its name.
		fmt.Fprintf(os.Stderr, "tetbench: unknown -exp %q (have all|%s)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	writeOutputs()
}
