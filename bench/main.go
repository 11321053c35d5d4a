// Command bench is the repository's benchmark: it drives the simulator, the
// whisperd serving path and the whispergate cluster in one process, checks
// every output, and reports end-to-end metrics (and, traced, per-layer
// metrics). Run it from the repository root through run.sh, which builds it
// first:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//	bash bench/run.sh compare -base <dir> -head <dir>
//	bash bench/run.sh ab -base <rev> -pairs <n>
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full record goes to --out.
// README.md lists the workloads, the metrics and what each is for.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"whisper/bench/start"
	"whisper/internal/stats"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "ab":
			os.Exit(abMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// outDir holds run outputs: result files, profiles, traces and the disk
// caches of the gate workloads.
const outDir = ".bench_out"

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", names))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1: after the measured pass, replay it traced and report per-layer metrics")
	out := fs.String("out", "", "result file (default "+outDir+"/<workload>-s<seed>[-traced].json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload one of %v, --seconds > 0 and --trace 0 or 1\n", names)
		return 2
	}
	if *out == "" {
		suffix := ""
		if *trace == 1 {
			suffix = "-traced"
		}
		*out = filepath.Join(outDir, fmt.Sprintf("%s-s%d%s.json", w.name, *seed, suffix))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o := opts{Seed: *seed, Duration: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, OutDir: outDir, Scale: 1}
	res, err := run(ctx, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's record: what the result file holds.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Host      host    `json:"host"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
	// Digest is SHA-256 over the run's first DigestN outputs, comparable
	// across commits for the same workload, seed and DigestN.
	Digest  string `json:"output_digest"`
	DigestN int    `json:"output_digest_n"`
	// Metrics are the end-to-end metrics of BENCHMARK.json, from the
	// untraced pass.
	Metrics map[string]metric `json:"metrics"`
	// Extra are end-to-end numbers with no bound: reported where the sample
	// supports them, for reading rather than gating.
	Extra map[string]metric `json:"extra"`
	// Layers are the per-layer metrics of BENCHMARK.json (traced runs).
	Layers    map[string]metric `json:"layers,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Profile   string            `json:"cpu_profile,omitempty"`
}

type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := bytes.Cut(sc.Bytes(), []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
				h.CPU = string(bytes.TrimSpace(v))
				break
			}
		}
	}
	return h
}

// endToEnd names the end-to-end metrics, with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// failedMS stands in for the +Inf latency of a failed operation when a
// percentile lands on one, since JSON has no infinity.
const failedMS = 1e9

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return failedMS
	}
	return v
}

// run measures one workload: an untraced pass for the end-to-end metrics,
// then, when tracing, a traced replay of the same inputs with a CPU profile,
// the probes, and the per-layer metrics.
func run(ctx context.Context, w workload, o opts) (*result, error) {
	res := &result{Workload: w.name, Seed: o.Seed, Seconds: o.Duration.Seconds(), Trace: o.Trace, Host: hostInfo()}
	rf := newRefs()
	p, _, err := w.run(ctx, o, nil, rf)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Problems = p.tried, p.failed, p.problems
	res.Digest, res.DigestN = p.digest, p.digestN
	values := map[string]float64{
		"setup_s":        setupSeconds(p),
		"latency_p50_ms": overWindows(p.latOps, latencyAt(0.5)),
		"latency_p90_ms": overWindows(p.latOps, latencyAt(0.9)),
	}
	res.Metrics = map[string]metric{}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{finite(values[e.name]), e.unit}
	}
	res.Extra = extraMetrics(p)
	if o.Trace {
		if err := traced(ctx, w, o, rf, p, res); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// setupSeconds is the time from process start to the first timed operation,
// counting the repeated set-up once, at its median: package initialization,
// input generation and one set-up.
func setupSeconds(p *pass) float64 {
	total := 0.0
	for _, s := range p.setup {
		total += s
	}
	return p.began.Sub(start.Time).Seconds() - total + stats.Median(p.setup)
}

// extraMetrics are the unbounded end-to-end numbers of one pass.
func extraMetrics(p *pass) map[string]metric {
	lat := latencies(p.latOps)
	x := map[string]metric{
		"latency_samples": {float64(len(lat)), "count"},
		"error_frac":      {frac(float64(p.failed), float64(p.tried)), "frac"},
		"ops":             {float64(p.ops), "count"},
		"rss_peak_mb":     {p.rssMiB, "MiB"},
		"cpu_ms_per_op":   {overWindows(p.latOps, cpuPerOp), "ms"},
	}
	if len(p.capOps) > 0 {
		x["capacity_rps"] = metric{overWindows(p.capOps, rate), "1/s"}
	}
	if supported(len(lat), 0.99) {
		x["latency_p99_ms"] = metric{finite(percentile(lat, 0.99)), "ms"}
	}
	if p.limit > 0 {
		within := 0
		for _, l := range lat {
			if l <= ms(p.limit) {
				within++
			}
		}
		x["slo_ok_frac"] = metric{frac(float64(within), float64(len(lat))), "frac"}
	}
	return x
}

// The end-to-end estimators split an operation sequence into consecutive
// windows of at least windowOps operations (enough for a supported p90), at
// most maxWindows of them, and report the median of the windows' values: a
// burst of host noise then moves one window, not the result.
const (
	windowOps  = 100
	maxWindows = 8
)

func overWindows(outs []outcome, f func([]outcome) float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	k := min(max(len(outs)/windowOps, 1), maxWindows)
	var vals []float64
	for i := 0; i < k; i++ {
		vals = append(vals, f(outs[i*len(outs)/k:(i+1)*len(outs)/k]))
	}
	return stats.Median(vals)
}

func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = outs[i].latencyMS()
	}
	return xs
}

func latencyAt(q float64) func([]outcome) float64 {
	return func(w []outcome) float64 { return percentile(latencies(w), q) }
}

// rate is successful operations per second over the window's span.
func rate(w []outcome) float64 {
	ok, first, last := span(w)
	return float64(ok) / last.Sub(first).Seconds()
}

// cpuPerOp is process CPU milliseconds per successful operation over the
// window's span.
func cpuPerOp(w []outcome) float64 {
	lo, hi := w[0].cpu0, w[0].cpu1
	for i := range w {
		lo, hi = min(lo, w[i].cpu0), max(hi, w[i].cpu1)
	}
	ok, _, _ := span(w)
	return ms(hi-lo) / float64(max(ok, 1))
}

func span(w []outcome) (ok int, first, last time.Time) {
	first, last = w[0].start, w[0].end
	for i := range w {
		if w[i].ok() {
			ok++
		}
		if w[i].start.Before(first) {
			first = w[i].start
		}
		if w[i].end.After(last) {
			last = w[i].end
		}
	}
	return ok, first, last
}

// traced replays the workload with tracing on and fills res.Layers.
func traced(ctx context.Context, w workload, o opts, rf *refs, untraced *pass, res *result) error {
	base := filepath.Join(o.OutDir, fmt.Sprintf("%s-s%d", w.name, o.Seed))
	res.Profile, res.TraceFile = base+".cpu.pprof", base+".perfetto.json"
	tr := newTracer()
	f, err := os.Create(res.Profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p, tf, err := w.run(ctx, o, tr, rf)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.Attempted += p.tried
	res.Failed += p.failed
	res.Problems = append(res.Problems, p.problems...)
	// Both passes replay the same inputs; where they digested as many
	// outputs, the outputs must match.
	if p.digestN == untraced.digestN && p.digest != res.Digest {
		res.Problems = append(res.Problems, "traced replay's output digest differs from the untraced pass's")
	}

	layers := trafficLayers(tf)
	pm, err := probes(ctx, o, w, tr)
	if err != nil {
		return err
	}
	prof, err := profileLayers(ctx, res.Profile)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{pm, prof} {
		for k, v := range m {
			layers[k] = v
		}
	}
	layers["loadgen.lag_p99_ms"] = percentile(p.lag, 0.99)
	layers["loadgen.sent"] = float64(p.tried)
	layers["obs.trace_overhead_frac"] = overWindows(p.latOps, latencyAt(0.5))/overWindows(untraced.latOps, latencyAt(0.5)) - 1
	res.Layers = map[string]metric{}
	for _, lm := range layerMetrics {
		res.Layers[lm.name] = metric{finite(layers[lm.name]), lm.unit}
	}
	return tr.write(res.TraceFile)
}

// printResult prints every reported metric, one per line, then the summary
// JSON object as the last line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func printResult(w io.Writer, res *result) error {
	for _, group := range []map[string]metric{res.Metrics, res.Extra, res.Layers} {
		var keys []string
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-36s %14.4f %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	if res.Trace {
		summary.Metrics = res.Layers
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" {
		return nil, errors.New(path + ": not a bench result")
	}
	return &r, nil
}
