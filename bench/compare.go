package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"whisper/internal/stats"
)

// specPath is the benchmark's definition, relative to the repository root.
const specPath = "BENCHMARK.json"

// spec is the part of BENCHMARK.json compare and ab read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// floors are absolute bounds, in the metric's unit, that widen a metric's
// relative bound where it is smaller: a change of setup time under 0.1 s is
// never judged, however short set-up is.
var floors = map[string]float64{"setup_s": 0.1}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "directory of the parent's result files")
	head := fs.String("head", "", "directory of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "bench compare: need -base and -head")
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResults(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	h, err := readResults(*head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compare(sp, b, h)
	printComparison(w, sp, rows)
	for _, r := range rows {
		if r.digestChanged || r.failedMore {
			return 1
		}
		for _, v := range r.verdicts {
			if v.verdict == "regression" {
				return 1
			}
		}
	}
	return 0
}

// readResults loads every untraced result file under dir.
func readResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var rs []*result
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		if !r.Trace {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return rs, nil
}

// verdict is one metric on one workload.
type verdict struct {
	metric           string
	pairs, wins      int
	baseMed, headMed float64
	baseIQR          float64
	change           float64 // relative, positive = worse
	verdict          string  // same, gain, regression, unresolved
}

// comparison is one workload's row.
type comparison struct {
	workload      string
	pairs         int
	verdicts      []verdict
	digestChanged bool
	failedMore    bool
}

// compare pairs base and head results of the same workload and seed (the
// i-th base run of a seed with its i-th head run) and judges every
// end-to-end metric. The allowance is the metric's bound times the base
// median, or its floor where that is larger:
//
//   - unresolved: the base runs' IQR is wider than the allowance, unless
//     every head run is better than every base run;
//   - regression: the head median is worse than the base median by more
//     than the allowance;
//   - gain: at least 10 pairs, the head better in at least 9 of 10 of them
//     (ties count for neither), and the medians further apart than the base
//     runs' IQR;
//   - same: otherwise.
func compare(sp *spec, base, head []*result) []comparison {
	type key struct {
		workload string
		seed     int64
	}
	group := func(rs []*result) map[key][]*result {
		g := map[key][]*result{}
		for _, r := range rs {
			k := key{r.Workload, r.Seed}
			g[k] = append(g[k], r)
		}
		return g
	}
	bg, hg := group(base), group(head)
	var rows []comparison
	for _, wl := range sp.Workloads {
		row := comparison{workload: wl.Name}
		var pb, ph []*result
		var seeds []int64
		for k := range bg {
			if k.workload == wl.Name {
				seeds = append(seeds, k.seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		failedB, failedH := 0, 0
		for _, s := range seeds {
			bs, hs := bg[key{wl.Name, s}], hg[key{wl.Name, s}]
			for i := 0; i < len(bs) && i < len(hs); i++ {
				pb, ph = append(pb, bs[i]), append(ph, hs[i])
				failedB += bs[i].Failed
				failedH += hs[i].Failed
				if bs[i].DigestN == hs[i].DigestN && bs[i].Digest != hs[i].Digest {
					row.digestChanged = true
				}
			}
		}
		row.pairs = len(pb)
		row.failedMore = failedH > failedB
		if row.pairs > 0 {
			for _, m := range sp.EndToEnd {
				row.verdicts = append(row.verdicts, judge(m, pb, ph))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func judge(m boundedMetric, base, head []*result) verdict {
	v := verdict{metric: m.Name, pairs: len(base)}
	var bv, hv []float64
	for i := range base {
		bv = append(bv, base[i].Metrics[m.Name].Value)
		hv = append(hv, head[i].Metrics[m.Name].Value)
	}
	// better reports whether a is better than b in the metric's direction.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range bv {
		if better(hv[i], bv[i]) {
			v.wins++
		}
	}
	v.baseMed, v.headMed = stats.Median(bv), stats.Median(hv)
	q1, q3 := quartiles(bv)
	v.baseIQR = q3 - q1
	worse := v.headMed - v.baseMed
	if m.Better == "higher" {
		worse = -worse
	}
	v.change = worse / v.baseMed
	allowed := max(m.Bound*math.Abs(v.baseMed), floors[m.Name])
	allBetter := true
	for _, h := range hv {
		for _, b := range bv {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case v.baseIQR > allowed && !allBetter:
		v.verdict = "unresolved"
	case worse > allowed:
		v.verdict = "regression"
	case v.pairs >= 10 && v.wins*10 >= 9*v.pairs && better(v.headMed, v.baseMed) &&
		math.Abs(v.headMed-v.baseMed) > v.baseIQR:
		v.verdict = "gain"
	default:
		v.verdict = "same"
	}
	return v
}

// printComparison prints one row per workload, one column per metric, then
// the details behind every verdict other than "same".
func printComparison(w io.Writer, sp *spec, rows []comparison) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	head := []string{"workload", "pairs"}
	for _, m := range sp.EndToEnd {
		head = append(head, m.Name)
	}
	head = append(head, "digest", "failures")
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	var notes []string
	for _, r := range rows {
		cells := []string{r.workload, fmt.Sprint(r.pairs)}
		for _, v := range r.verdicts {
			cells = append(cells, fmt.Sprintf("%s %+.1f%%", v.verdict, -100*v.change))
			if v.verdict != "same" {
				notes = append(notes, fmt.Sprintf("%s %s: %s; base median %.4g (IQR %.4g), head median %.4g, head better in %d of %d pairs",
					r.workload, v.metric, v.verdict, v.baseMed, v.baseIQR, v.headMed, v.wins, v.pairs))
			}
		}
		if r.pairs == 0 {
			for range sp.EndToEnd {
				cells = append(cells, "no pairs")
			}
		}
		digest, failures := "same", "same"
		if r.digestChanged {
			digest = "CHANGED"
		}
		if r.failedMore {
			failures = "MORE"
		}
		cells = append(cells, digest, failures)
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	if len(notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range notes {
			fmt.Fprintln(w, n)
		}
	}
	fmt.Fprintln(w, "\ncells: verdict and the head's change in the better direction (positive = better).")
}
