package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Offline run-report builder: joins a -trace-out Perfetto trace with a
// -metrics-out snapshot into one human-readable summary — per-phase
// wall/cycle breakdown, request-ID index, cache hit ratios, queue-wait
// percentiles, machine-pool reuse rates. cmd/obsreport is a thin flag
// wrapper over this; any whisper/tetbench/whisperd artifact pair works.

// ReadTraceFile loads a trace previously written by WriteTraceFile /
// ExportTrace.
func ReadTraceFile(path string) (*TraceFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf TraceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("obs: %s is not a trace-event JSON file: %w", path, err)
	}
	return &tf, nil
}

// ReadSnapshotFile loads a metrics snapshot previously written by
// WriteMetricsFile, accepting the JSON and the aligned-text renderings
// (sniffed from content, not the file name). Anything else, the Prometheus
// exposition included, is an error naming the first line it cannot read.
func ReadSnapshotFile(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "{") {
		var s Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			return Snapshot{}, fmt.Errorf("obs: %s: %w", path, err)
		}
		return s, nil
	}
	return parseTextSnapshot(path, bytes.NewReader(b))
}

// parseTextSnapshot reverses Snapshot.WriteText. Every non-blank line must be
// a counter, gauge or histogram line; path names the input in errors.
func parseTextSnapshot(path string, r io.Reader) (Snapshot, error) {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	bad := func(what string) error {
		return fmt.Errorf("obs: %s:%d: %s: %q", path, line, what, scan.Text())
	}
	for scan.Scan() {
		line++
		fields := strings.Fields(scan.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return Snapshot{}, bad("not a counter, gauge or histogram line")
		}
		kind, key := fields[0], fields[1]
		switch kind {
		case "counter":
			v, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return Snapshot{}, bad("bad counter line")
			}
			s.Counters[key] = v
		case "gauge":
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return Snapshot{}, bad("bad gauge line")
			}
			s.Gauges[key] = v
		case "histogram":
			var h HistogramSnapshot
			for _, kv := range fields[2:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					continue
				}
				v, err := strconv.ParseUint(kv[eq+1:], 10, 64)
				if err != nil {
					return Snapshot{}, bad("bad histogram line")
				}
				switch kv[:eq] {
				case "n":
					h.N = int(v)
				case "min":
					h.Min = v
				case "p50":
					h.P50 = v
				case "p90":
					h.P90 = v
				case "p95":
					h.P95 = v
				case "p99":
					h.P99 = v
				case "max":
					h.Max = v
				}
			}
			s.Histograms[key] = h
		default:
			return Snapshot{}, bad("not a counter, gauge or histogram line")
		}
	}
	return s, scan.Err()
}

// PhaseStat aggregates every span event sharing one name.
type PhaseStat struct {
	Name     string
	Count    int
	TotalDur float64 // µs on the wall track, simulated cycles on the sim track
	MaxDur   float64
	Wall     bool // true: wall-clock track (PIDWall), false: simulated cycles
}

// RequestStat summarises one request ID's footprint in the trace.
type RequestStat struct {
	ID     string
	Spans  int
	WallUs float64 // summed duration of its wall-track spans
	Names  []string
}

// RunReport is the joined offline view of one run's artifacts.
type RunReport struct {
	// Trace-derived sections; zero-valued when no trace was supplied.
	Phases   []PhaseStat
	Requests []RequestStat
	UopCount int
	PMUSamps int
	HasTrace bool

	// Metrics-derived sections; zero-valued when no snapshot was supplied.
	CacheHits      map[string]uint64 // tier → hits
	CacheMisses    uint64
	Coalesced      uint64
	QueueWait      map[string]HistogramSnapshot // pool → sched.queue.latency.us
	RequestLatency map[string]HistogramSnapshot // experiment → server.request.us
	PoolReuse      map[string][2]float64        // pool → {gets, reuses}
	HasMetrics     bool
}

// BuildRunReport joins an optional trace with an optional metrics snapshot
// (nil tf means metrics-only, nil snap trace-only).
func BuildRunReport(tf *TraceFile, snap *Snapshot) *RunReport {
	rep := &RunReport{
		CacheHits:      map[string]uint64{},
		QueueWait:      map[string]HistogramSnapshot{},
		RequestLatency: map[string]HistogramSnapshot{},
		PoolReuse:      map[string][2]float64{},
	}
	phases := map[string]*PhaseStat{}
	requests := map[string]*RequestStat{}
	var events []TraceEvent
	if tf != nil {
		rep.HasTrace = true
		events = tf.TraceEvents
	}
	for _, ev := range events {
		switch {
		case ev.Cat == "span":
			key := fmt.Sprintf("%s/%d", ev.Name, ev.PID)
			p, ok := phases[key]
			if !ok {
				p = &PhaseStat{Name: ev.Name, Wall: ev.PID == PIDWall}
				phases[key] = p
			}
			p.Count++
			p.TotalDur += ev.Dur
			if ev.Dur > p.MaxDur {
				p.MaxDur = ev.Dur
			}
			if id, ok := ev.Args[RequestIDAttr].(string); ok && id != "" {
				rq, ok := requests[id]
				if !ok {
					rq = &RequestStat{ID: id}
					requests[id] = rq
				}
				rq.Spans++
				if ev.PID == PIDWall {
					rq.WallUs += ev.Dur
				}
				rq.Names = append(rq.Names, ev.Name)
			}
		case ev.Cat == "uop":
			rep.UopCount++
		case ev.Ph == PhaseCounter:
			rep.PMUSamps++
		}
	}
	for _, p := range phases {
		rep.Phases = append(rep.Phases, *p)
	}
	sort.Slice(rep.Phases, func(i, j int) bool {
		a, b := rep.Phases[i], rep.Phases[j]
		if a.Wall != b.Wall {
			return a.Wall // wall-clock stages first: that's the serving view
		}
		if a.TotalDur != b.TotalDur {
			return a.TotalDur > b.TotalDur
		}
		return a.Name < b.Name
	})
	for _, rq := range requests {
		sort.Strings(rq.Names)
		rq.Names = dedupStrings(rq.Names)
		rep.Requests = append(rep.Requests, *rq)
	}
	sort.Slice(rep.Requests, func(i, j int) bool { return rep.Requests[i].ID < rep.Requests[j].ID })

	if snap != nil {
		rep.HasMetrics = true
		for key, v := range snap.Counters {
			name, labels := parseMetricKey(key)
			switch name {
			case "server.cache.hits":
				rep.CacheHits[labelValue(labels, "tier")] += v
			case "server.cache.misses":
				rep.CacheMisses += v
			case "server.coalesced":
				rep.Coalesced += v
			}
		}
		for key, h := range snap.Histograms {
			name, labels := parseMetricKey(key)
			switch name {
			case "sched.queue.latency.us":
				rep.QueueWait[labelValue(labels, "pool")] = h
			case "server.request.us":
				rep.RequestLatency[labelValue(labels, "experiment")] = h
			}
		}
		for key, v := range snap.Gauges {
			name, labels := parseMetricKey(key)
			pool := labelValue(labels, "pool")
			switch name {
			case "server.machines.gets":
				e := rep.PoolReuse[pool]
				e[0] = v
				rep.PoolReuse[pool] = e
			case "server.machines.reuses":
				e := rep.PoolReuse[pool]
				e[1] = v
				rep.PoolReuse[pool] = e
			}
		}
	}
	return rep
}

func labelValue(labels []Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// WriteText renders the report. Durations on the wall track are
// microseconds; on the sim track, simulated cycles (1 cycle = 1 µs in the
// trace's own time base).
func (rep *RunReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "whisper run report")
	fmt.Fprintln(bw, "==================")
	if rep.HasTrace {
		fmt.Fprintf(bw, "span phases: %d   uop records: %d   pmu samples: %d   request ids: %d\n\n",
			len(rep.Phases), rep.UopCount, rep.PMUSamps, len(rep.Requests))
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintln(bw, "per-phase breakdown (wall stages in µs, sim phases in cycles)")
		fmt.Fprintf(bw, "  %-40s %6s %14s %14s %14s  %s\n", "phase", "count", "total", "mean", "max", "track")
		for _, p := range rep.Phases {
			track := "sim"
			if p.Wall {
				track = "wall"
			}
			fmt.Fprintf(bw, "  %-40s %6d %14.0f %14.1f %14.0f  %s\n",
				p.Name, p.Count, p.TotalDur, p.TotalDur/float64(p.Count), p.MaxDur, track)
		}
		fmt.Fprintln(bw)
	}

	if len(rep.Requests) > 0 {
		fmt.Fprintln(bw, "requests (by X-Whisper-Request-Id)")
		for _, rq := range rep.Requests {
			fmt.Fprintf(bw, "  %s  spans=%d wall_us=%.0f  %s\n",
				rq.ID, rq.Spans, rq.WallUs, strings.Join(rq.Names, ", "))
		}
		fmt.Fprintln(bw)
	}

	if rep.HasMetrics {
		hits := uint64(0)
		for _, v := range rep.CacheHits {
			hits += v
		}
		if hits+rep.CacheMisses > 0 {
			ratio := float64(hits) / float64(hits+rep.CacheMisses)
			fmt.Fprintf(bw, "cache: %d hits / %d misses (%.1f%% hit ratio", hits, rep.CacheMisses, 100*ratio)
			tiers := make([]string, 0, len(rep.CacheHits))
			for tier := range rep.CacheHits {
				tiers = append(tiers, tier)
			}
			sort.Strings(tiers)
			for _, tier := range tiers {
				fmt.Fprintf(bw, "; %s=%d", tier, rep.CacheHits[tier])
			}
			fmt.Fprintf(bw, "), %d coalesced\n", rep.Coalesced)
		}
		writeHistSection(bw, "queue wait (µs) per pool", rep.QueueWait)
		writeHistSection(bw, "request latency (µs) per experiment", rep.RequestLatency)
		if len(rep.PoolReuse) > 0 {
			pools := make([]string, 0, len(rep.PoolReuse))
			for pool := range rep.PoolReuse {
				pools = append(pools, pool)
			}
			sort.Strings(pools)
			fmt.Fprintln(bw, "machine-pool reuse")
			for _, pool := range pools {
				e := rep.PoolReuse[pool]
				rate := 0.0
				if e[0] > 0 {
					rate = 100 * e[1] / e[0]
				}
				fmt.Fprintf(bw, "  %-8s gets=%.0f reuses=%.0f (%.1f%% reuse)\n", pool, e[0], e[1], rate)
			}
		}
	}
	return bw.Flush()
}

// writeHistSection renders one map of histogram snapshots, sorted by key.
func writeHistSection(w io.Writer, title string, m map[string]HistogramSnapshot) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, title)
	for _, k := range keys {
		h := m[k]
		name := k
		if name == "" {
			name = "(unlabelled)"
		}
		fmt.Fprintf(w, "  %-16s n=%d p50=%d p95=%d p99=%d max=%d\n", name, h.N, h.P50, h.P95, h.P99, h.Max)
	}
}
