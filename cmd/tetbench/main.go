// Command tetbench regenerates the paper's tables and figures on the
// simulated machines. Each -exp value is one artefact of the evaluation, in
// the order of experiments.Artefacts; "all" runs every one (see
// EXPERIMENTS.md for the index).
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
		exp      = flag.String("exp", "all", "experiment: all|"+strings.Join(experiments.Artefacts(), "|"))
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

	p := experiments.DefaultSweepParams()
	p.Seed, p.ThroughputBytes, p.KASLRReps = *seed, *bytes, *reps
	if *asJSON {
		report, err := experiments.RunAll(ex, p)
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

	names := experiments.Artefacts()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "tetbench: unknown -exp %q (have all|%s)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	// The text plot of Fig. 1b takes more batches than the JSON report.
	p.Fig1bBatches = 8
	// Every artefact runs through the sweeps the whisperd daemon serves
	// (experiments.RunSweep), so the CLI and a daemon response render the
	// same bytes by construction.
	for _, name := range names {
		if *exp != "all" && *exp != name {
			continue
		}
		sp := reg.StartWallSpan("tetbench." + name)
		sr, err := experiments.RunSweep(ex, name, p)
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tetbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(sr.Rendered)
		printAgreement(sr.Result)
		reg.Counter("tetbench.experiments").Inc()
	}
	writeOutputs()
}

// printAgreement prints, under the two artefacts the paper states a matrix
// for (Table 2 and the §6 mitigations), whether the measurement matches it.
func printAgreement(result any) {
	var ok bool
	var diffs []string
	var match string
	switch rows := result.(type) {
	case []experiments.Table2Row:
		ok, diffs = experiments.Table2Agrees(rows)
		match = "all decided cells match the paper"
	case []experiments.MitigationRow:
		ok, diffs = experiments.MitigationsAgree(rows)
		match = "all cells match the paper's §6 discussion"
	default:
		return
	}
	if ok {
		fmt.Println(match)
	} else {
		fmt.Println("DEVIATIONS:", diffs)
	}
	fmt.Println()
}
