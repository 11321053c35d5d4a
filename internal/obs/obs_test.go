package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whisper/internal/obs"
	"whisper/internal/pmu"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("probes").Add(3)
	r.Counter("probes").Inc()
	r.Counter("probes", obs.L("cpu", "zen3")).Inc()
	r.Gauge("threshold").Set(120.5)
	h := r.Histogram("tote")
	for _, v := range []uint64{10, 20, 20, 30} {
		h.Observe(v)
	}

	s := r.Snapshot()
	if got := s.Counters["probes"]; got != 4 {
		t.Fatalf("probes = %d, want 4", got)
	}
	if got := s.Counters["probes{cpu=zen3}"]; got != 1 {
		t.Fatalf("labelled counter = %d, want 1", got)
	}
	if got := s.Gauges["threshold"]; got != 120.5 {
		t.Fatalf("gauge = %v", got)
	}
	hs := s.Histograms["tote"]
	if hs.N != 4 || hs.Min != 10 || hs.Max != 30 || hs.P50 != 20 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c").Add(10)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(5)
	before := r.Snapshot()

	r.Counter("c").Add(7)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(6)
	r.Histogram("h").Observe(7)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["c"] != 7 {
		t.Fatalf("counter delta = %d, want 7", d.Counters["c"])
	}
	if d.Gauges["g"] != 9 {
		t.Fatalf("gauge delta keeps current value: got %v", d.Gauges["g"])
	}
	if d.Histograms["h"].N != 2 {
		t.Fatalf("histogram N delta = %d, want 2", d.Histograms["h"].N)
	}
}

func TestSnapshotEncoders(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("a.count").Add(2)
	r.Gauge("b.level").Set(0.5)
	r.Histogram("c.cycles").Observe(42)
	s := r.Snapshot()

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter", "a.count", "gauge", "b.level", "histogram", "c.cycles", "p50=42"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, buf.String())
	}
	if back.Counters["a.count"] != 2 || back.Histograms["c.cycles"].P50 != 42 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestSpanNestingAndForceClose(t *testing.T) {
	r := obs.NewRegistry()
	root := r.StartSpan("root", 100)
	child := r.StartSpan("child", 110)
	grand := r.StartSpan("grand", 120)
	grand.AttrU64("k", 7)
	grand.End(130)
	// child left open: root.End must force-close it at the same cycle.
	root.End(200)
	_ = child

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("span count = %d", len(spans))
	}
	byName := map[string]*obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatal("child not parented to root")
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Fatal("grand not parented to child")
	}
	if byName["child"].EndCycle != 200 {
		t.Fatalf("open child not force-closed with root: end=%d", byName["child"].EndCycle)
	}
	if byName["grand"].EndCycle != 130 {
		t.Fatalf("explicitly-ended span clobbered: end=%d", byName["grand"].EndCycle)
	}
	// After the stack unwound, a new span is a root again.
	next := r.StartSpan("next", 300)
	next.End(301)
	if got := r.Spans()[3].Parent; got != -1 {
		t.Fatalf("post-unwind span has parent %d", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *obs.Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	sp := r.StartSpan("s", 1)
	sp.Attr("k", "v")
	sp.AttrU64("n", 2)
	sp.End(2)
	r.SamplePMU(1, pmu.Counts{})
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("nil registry recorded %d spans", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	tf := r.BuildTrace(nil)
	if tf == nil || len(tf.TraceEvents) == 0 {
		t.Fatal("nil registry must still build a valid (metadata-only) trace")
	}
}

// TestDisabledInstrumentationZeroAlloc pins the contract the hot path relies
// on: the full per-probe instrumentation sequence — span open, typed attrs,
// span end, metric updates, PMU sample — allocates nothing when the
// registry is nil (observability disabled, the default).
func TestDisabledInstrumentationZeroAlloc(t *testing.T) {
	var r *obs.Registry
	var counts pmu.Counts
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan("core.probe", 123)
		sp.AttrHex("target", 0xffffffff80000000)
		sp.AttrU64("tote", 42)
		sp.AttrBool("hit", true)
		sp.End(456)
		r.Counter("core.probes").Inc()
		r.Histogram("core.probe.tote").Observe(42)
		r.SamplePMU(456, counts)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f times per probe, want 0", allocs)
	}
}

func TestPMUSampleDecimation(t *testing.T) {
	r := obs.NewRegistry()
	n := obs.DefaultPMUSampleCap + 100
	for i := 0; i < n; i++ {
		var c pmu.Counts
		c[pmu.CyclesTotal] = uint64(i)
		r.SamplePMU(uint64(i), c)
	}
	samples := r.PMUSamples()
	if len(samples) > obs.DefaultPMUSampleCap {
		t.Fatalf("samples not bounded: %d > %d", len(samples), obs.DefaultPMUSampleCap)
	}
	// Decimation must preserve cycle order and keep both ends of the span.
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatalf("samples out of order at %d: %d after %d", i, samples[i].Cycle, samples[i-1].Cycle)
		}
	}
	if samples[0].Cycle != 0 {
		t.Fatalf("oldest sample dropped: first cycle = %d", samples[0].Cycle)
	}
	if last := samples[len(samples)-1].Cycle; last < uint64(n-1) {
		t.Fatalf("newest sample missing: last cycle = %d, want %d", last, n-1)
	}
}

func TestSnapshotFromPMU(t *testing.T) {
	var c pmu.Counts
	c[pmu.UopsIssuedAny] = 17
	c[pmu.MachineClearsCount] = 3
	s := obs.SnapshotFromPMU("pmu/", c, []pmu.Event{pmu.UopsIssuedAny, pmu.MachineClearsCount})
	if s.Counters["pmu/UOPS_ISSUED.ANY"] != 17 {
		t.Fatalf("snapshot = %+v", s.Counters)
	}
	if s.Counters["pmu/MACHINE_CLEARS.COUNT"] != 3 {
		t.Fatalf("snapshot = %+v", s.Counters)
	}
}

// TestConcurrentScrapeRaceClean hammers the registry with metric and span
// writers while scrapers snapshot and export concurrently — the shape a
// /metrics or /traces request has while a sweep is mid-flight. It asserts
// nothing beyond "no data race / no panic"; run it under -race to get value.
func TestConcurrentScrapeRaceClean(t *testing.T) {
	r := obs.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	writer := func(id int) {
		defer wg.Done()
		var counts pmu.Counts
		counts[pmu.UopsIssuedAny] = uint64(id)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Counter("scrape.test.hits", obs.L("writer", strconv.Itoa(id))).Inc()
			r.Gauge("scrape.test.depth").Set(float64(i))
			r.Histogram("scrape.test.lat").Observe(uint64(i % 97))
			sp := r.StartRequestSpan(context.Background(), "scrape.test.span")
			sp.Attr("iter", strconv.Itoa(i))
			r.SamplePMU(uint64(i), counts)
			sp.End(uint64(i))
		}
	}
	scraper := func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if err := snap.WriteText(io.Discard); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			if err := snap.WriteJSON(io.Discard); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
			if err := r.ExportTrace(io.Discard, nil); err != nil {
				t.Errorf("ExportTrace: %v", err)
				return
			}
			for _, sp := range r.Spans() {
				_ = sp.Name
			}
		}
	}

	for id := 0; id < 4; id++ {
		wg.Add(1)
		go writer(id)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go scraper()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if r.Counter("scrape.test.hits", obs.L("writer", "0")).Value() == 0 {
		t.Fatal("writers made no progress")
	}
}
