// Command obsreport is the offline analyzer for a run's observability
// artefacts: it joins the Perfetto trace (-trace-out) and metrics snapshot
// (-metrics-out) any whisper tool or whisperd writes into one human report —
// per-phase wall/cycle breakdown, per-request span rollups keyed by request
// ID, cache hit ratios, queue-wait percentiles, and machine-pool reuse
// rates. It also lints Prometheus expositions (-lint-metrics), which is what
// the CI smoke job runs against a live /metrics scrape.
//
// Usage:
//
//	obsreport -trace run.trace.json -metrics run.metrics.json
//	obsreport -metrics run.metrics.txt           # metrics only
//	obsreport -lint-metrics scrape.prom          # exit 1 on lint findings
package main

import (
	"flag"
	"fmt"
	"os"

	"whisper/internal/obs"
)

func main() {
	var (
		tracePath   = flag.String("trace", "", "Perfetto/Chrome trace file written by -trace-out")
		metricsPath = flag.String("metrics", "", "metrics snapshot written by -metrics-out (.json or text)")
		lintPath    = flag.String("lint-metrics", "", "lint a Prometheus text exposition and exit (- for stdin)")
	)
	flag.Parse()

	if *lintPath != "" {
		os.Exit(lint(*lintPath))
	}
	if *tracePath == "" && *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "obsreport: need -trace and/or -metrics (or -lint-metrics); see -h")
		os.Exit(2)
	}

	var tf *obs.TraceFile
	if *tracePath != "" {
		t, err := obs.ReadTraceFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		tf = t
	}
	var snap *obs.Snapshot
	if *metricsPath != "" {
		s, err := obs.ReadSnapshotFile(*metricsPath)
		if err != nil {
			fatal(err)
		}
		snap = &s
	}
	rep := obs.BuildRunReport(tf, snap)
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

// lint validates a Prometheus exposition and reports every finding; the
// exit code makes it usable as a CI gate without promtool.
func lint(path string) int {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	errs := obs.LintPrometheus(in)
	if len(errs) == 0 {
		fmt.Println("obsreport: prometheus exposition ok")
		return 0
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "obsreport: lint:", err)
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsreport:", err)
	os.Exit(1)
}
