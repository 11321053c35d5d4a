package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	keys := gateKeys()
	a := gateInputs(1, 5*time.Second, len(keys))
	b := gateInputs(1, 5*time.Second, len(keys))
	c := gateInputs(2, 5*time.Second, len(keys))
	if !reflect.DeepEqual(a, b) {
		t.Error("gate arrivals and keys differ between two draws from seed 1")
	}
	if reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.open, c.open) {
		t.Error("seeds 1 and 2 draw the same gate arrivals or keys")
	}
	if !reflect.DeepEqual(coldRequests(1, 0, 45), coldRequests(1, 0, 45)) {
		t.Error("serve-cold requests differ between two draws from seed 1")
	}
	if reflect.DeepEqual(coldRequests(1, 0, 45), coldRequests(2, 0, 45)) {
		t.Error("seeds 1 and 2 draw the same serve-cold requests")
	}
	if reflect.DeepEqual(seedOrder(1), seedOrder(2)) {
		t.Error("seeds 1 and 2 order the seed pool the same way")
	}
}

func TestColdRequestsUniqueAndStratified(t *testing.T) {
	reqs := coldRequests(3, 0, len(seedPool)-1)
	seen := map[int64]bool{}
	for _, r := range reqs {
		if seen[r.Seed] || r.Seed == warmSeed {
			t.Fatalf("seed %d reused", r.Seed)
		}
		seen[r.Seed] = true
	}
	for b := 0; b+len(coldMix) <= len(reqs); b += len(coldMix) {
		var got []string
		for _, r := range reqs[b : b+len(coldMix)] {
			got = append(got, r.Experiment)
		}
		want := append([]string(nil), coldMix...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block at %d holds %v, want the mix %v", b, got, want)
		}
	}
}

func TestZipf(t *testing.T) {
	const n, s, draws = 44, 1.1, 200000
	z := newZipf(n, s)
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		r := z.draw(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	total := 0.0
	for r := 1; r <= n; r++ {
		total += math.Pow(float64(r), -s)
	}
	for r := 0; r < 5; r++ {
		want := math.Pow(float64(r+1), -s) / total
		if got := counts[r] / draws; math.Abs(got-want)/want > 0.05 {
			t.Errorf("rank %d drawn with frequency %.4f, want %.4f", r, got, want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, math.Inf(1), 3}, 1); !math.IsInf(got, 1) {
		t.Errorf("a failure must rank above every success, got %v", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the definition the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.1, 1.2, 8.8, 4.4}, 1.675, 7.7},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWindowsReportTheMedianWindow(t *testing.T) {
	// Four windows of 100: three with 1 ms operations, one stalled at
	// 50 ms. The median window's p90 ignores the stall.
	base := time.Unix(0, 0)
	var outs []outcome
	for i := 0; i < 400; i++ {
		d := time.Millisecond
		if i >= 100 && i < 200 {
			d = 50 * time.Millisecond
		}
		outs = append(outs, outcome{idx: i, due: base, start: base, end: base.Add(d)})
	}
	if got := overWindows(outs, latencyAt(0.9)); got != 1 {
		t.Errorf("median window p90 = %v ms, want 1", got)
	}
}

func results(workload, name string, vals []float64, digest string) []*result {
	var rs []*result
	for i, v := range vals {
		rs = append(rs, &result{Workload: workload, Seed: int64(i + 1), Digest: digest, DigestN: 1,
			Metrics: map[string]metric{name: {Value: v, Unit: "ms"}}})
	}
	return rs
}

func TestCompare(t *testing.T) {
	const p50, setup = "latency_p50_ms", "setup_s"
	bounds := map[string]boundedMetric{
		p50: {Name: p50, Unit: "ms", Better: "lower", Bound: 0.1},
		// For a 0.3 s set-up, setup_s's 0.1 s floor is wider than the bound.
		setup: {Name: setup, Unit: "s", Better: "lower", Bound: 0.25},
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	setups := []float64{0.30, 0.31, 0.29, 0.30, 0.32, 0.28, 0.30, 0.31, 0.29, 0.30}
	for _, c := range []struct {
		name       string
		metric     string
		base, head []float64
		headDigest string
		want       string
		digest     bool
	}{
		{"gain", p50, steady, shift(steady, -8), "d", "gain", false},
		{"too few pairs for a gain", p50, steady[:5], shift(steady[:5], -8), "d", "same", false},
		{"regression", p50, steady, shift(steady, 15), "d", "regression", false},
		{"within bound", p50, steady, shift(steady, 5), "d", "same", false},
		{"unresolved", p50, []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, shift(steady, 5), "d", "unresolved", false},
		{"digest change", p50, steady, steady, "other", "same", true},
		{"set-up change under the floor", setup, setups, shift(setups, 0.09), "d", "same", false},
		{"set-up change over the floor", setup, setups, shift(setups, 0.15), "d", "regression", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := &spec{EndToEnd: []boundedMetric{bounds[c.metric]}}
			sp.Workloads = append(sp.Workloads, struct {
				Name string `json:"name"`
			}{"w"})
			rows := compare(sp, results("w", c.metric, c.base, "d"), results("w", c.metric, c.head, c.headDigest))
			if len(rows) != 1 || len(rows[0].verdicts) != 1 {
				t.Fatalf("got rows %+v", rows)
			}
			if got := rows[0].verdicts[0].verdict; got != c.want {
				t.Errorf("verdict %q, want %q (%+v)", got, c.want, rows[0].verdicts[0])
			}
			if rows[0].digestChanged != c.digest {
				t.Errorf("digestChanged = %v, want %v", rows[0].digestChanged, c.digest)
			}
		})
	}
}

// TestSmoke runs every workload, scaled down, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range full.PerLayer {
		wantLayers[m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, wl := range sp.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q does not exist", wl.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(context.Background(), w, opts{Seed: 1, Duration: 100 * time.Millisecond,
				Trace: true, OutDir: t.TempDir(), Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed > 0 {
				t.Errorf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
			}
			checkNames(t, "end-to-end", res.Metrics, wantE2E)
			checkNames(t, "per-layer", res.Layers, wantLayers)
			tf, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(tf) {
				t.Error("the Perfetto trace is not valid JSON")
			}
		})
	}
}

func checkNames(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not reported", kind, name)
		case m.Unit != unit:
			t.Errorf("%s metric %s in %s, BENCHMARK.json says %s", kind, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s = %v", kind, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s reported but not in BENCHMARK.json", kind, name)
		}
	}
}
