package obs_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"whisper/internal/obs"
)

// reportRegistry simulates one served request's telemetry footprint: a
// request-tagged wall span plus the sched spans its execution sharded into,
// and the cache/queue/pool metrics obsreport summarises.
func reportRegistry(reqID string) *obs.Registry {
	r := obs.NewRegistry()
	ctx := obs.WithRequestID(context.Background(), reqID)
	r.StartRequestSpan(ctx, "server.run.table2").End(0)
	for _, key := range []string{"cell/0", "cell/1"} {
		r.StartRequestSpan(ctx, "table2."+key).End(0)
	}
	orphan := r.StartRequestSpan(context.Background(), "table2.cell/other")
	orphan.End(0)

	r.Counter("server.cache.hits", obs.L("tier", "memory")).Add(3)
	r.Counter("server.cache.misses").Add(1)
	r.Counter("server.coalesced").Add(2)
	r.Histogram("sched.queue.latency.us", obs.L("pool", "table2")).Observe(40)
	r.Histogram("server.request.us", obs.L("experiment", "table2")).Observe(900)
	r.Gauge("server.machines.gets", obs.L("pool", "sweep")).Set(8)
	r.Gauge("server.machines.reuses", obs.L("pool", "sweep")).Set(6)
	return r
}

// TestRunReportJoinsTraceAndMetrics writes both artifacts the way the cmds
// do (-trace-out / -metrics-out), reads them back through the report loader,
// and checks the joined report: request-ID rollups from the trace, cache and
// queue and pool sections from the snapshot.
func TestRunReportJoinsTraceAndMetrics(t *testing.T) {
	const reqID = "deadbeef00000001"
	r := reportRegistry(reqID)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	metricsPath := filepath.Join(dir, "run.metrics.json")
	if err := r.WriteTraceFile(tracePath, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetricsFile(metricsPath); err != nil {
		t.Fatal(err)
	}

	tf, err := obs.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshotFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.BuildRunReport(tf, &snap)

	if len(rep.Requests) != 1 || rep.Requests[0].ID != reqID {
		t.Fatalf("request rollup = %+v, want one entry for %s", rep.Requests, reqID)
	}
	if rep.Requests[0].Spans != 3 {
		t.Fatalf("request %s has %d spans, want 3 (untagged span must not count)", reqID, rep.Requests[0].Spans)
	}
	if rep.CacheHits["memory"] != 3 || rep.CacheMisses != 1 || rep.Coalesced != 2 {
		t.Fatalf("cache section wrong: hits=%v misses=%d coalesced=%d",
			rep.CacheHits, rep.CacheMisses, rep.Coalesced)
	}
	if rep.QueueWait["table2"].N != 1 {
		t.Fatalf("queue-wait section missing: %+v", rep.QueueWait)
	}
	if rep.RequestLatency["table2"].P50 != 900 {
		t.Fatalf("request-latency section wrong: %+v", rep.RequestLatency)
	}
	if got := rep.PoolReuse["sweep"]; got[0] != 8 || got[1] != 6 {
		t.Fatalf("pool-reuse section wrong: %+v", rep.PoolReuse)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{reqID, "server.run.table2", "75.0% hit ratio", "reuse"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestRunReportMetricsOnly is obsreport's metrics-only mode (-metrics
// without -trace): the report carries the snapshot's sections and no trace
// summary.
func TestRunReportMetricsOnly(t *testing.T) {
	r := reportRegistry("x")
	for _, name := range []string{"run.metrics.json", "run.metrics.txt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := r.WriteMetricsFile(path); err != nil {
			t.Fatal(err)
		}
		snap, err := obs.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.BuildRunReport(nil, &snap).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "75.0% hit ratio") || !strings.Contains(out, "reuse") {
			t.Fatalf("%s: metrics sections missing:\n%s", name, out)
		}
		if strings.Contains(out, "span phases") {
			t.Fatalf("%s: trace summary printed without a trace:\n%s", name, out)
		}
	}
}

// TestReadSnapshotFileRejectsProm checks a Prometheus exposition is refused,
// naming the file and the line, instead of read as an empty snapshot.
func TestReadSnapshotFileRejectsProm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if err := reportRegistry("x").WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	_, err := obs.ReadSnapshotFile(path)
	if err == nil || !strings.Contains(err.Error(), path+":1:") {
		t.Fatalf("ReadSnapshotFile(%s) = %v, want an error naming the file and line 1", path, err)
	}
}

// TestReadSnapshotFileTextRoundTrip pins that the aligned-text rendering a
// -metrics-out run writes by default parses back into the same numbers.
func TestReadSnapshotFileTextRoundTrip(t *testing.T) {
	r := reportRegistry("x")
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := r.WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if snap.Counters[`server.cache.hits{tier=memory}`] != want.Counters[`server.cache.hits{tier=memory}`] {
		t.Fatalf("counter lost in text round-trip: %v", snap.Counters)
	}
	gotH := snap.Histograms[`server.request.us{experiment=table2}`]
	wantH := want.Histograms[`server.request.us{experiment=table2}`]
	if gotH.N != wantH.N || gotH.P50 != wantH.P50 || gotH.P99 != wantH.P99 || gotH.Max != wantH.Max {
		t.Fatalf("histogram lost in text round-trip: got %+v want %+v", gotH, wantH)
	}
}
