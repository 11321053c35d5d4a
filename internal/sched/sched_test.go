package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/obs"
)

// TestDeriveSeedGolden pins the derivation to fixed values: the scheme is
// pure arithmetic, so these must hold on every Go version and platform. A
// failure here means previously published sweep outputs are no longer
// reproducible.
func TestDeriveSeedGolden(t *testing.T) {
	for _, c := range []struct {
		root int64
		key  string
		want int64
	}{
		{7, "table2/Intel Core i7-6700", 6131552234029204365},
		{7, "fig1b/batch/0", -1924748343277846459},
		{0, "", -780787492076525413},
		{-1, "x", 5626447134159687503},
		{12345, "kaslr/TET-KASLR + KPTI", 6777764658688830938},
	} {
		if got := DeriveSeed(c.root, c.key); got != c.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", c.root, c.key, got, c.want)
		}
	}
}

// TestDeriveSeedSeparates checks that nearby roots and keys land on distinct
// seeds — the property that keeps sibling cells' RNG streams independent.
func TestDeriveSeedSeparates(t *testing.T) {
	seen := make(map[int64]string)
	for root := int64(0); root < 8; root++ {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("cell/%d", i)
			s := DeriveSeed(root, key)
			id := fmt.Sprintf("root=%d %s", root, key)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

// TestMapOrderPreserved runs jobs whose completion order is scrambled (later
// jobs finish first) and checks results land in submission order.
func TestMapOrderPreserved(t *testing.T) {
	const n = 32
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job/%d", i),
			Run: func(context.Context, int64) (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond / 4) // invert completion order
				return i * i, nil
			},
		}
	}
	got, err := Map(context.Background(), Options{Name: "order", Parallel: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSeedsIndependentOfSchedule runs the same job set at several worker
// counts and checks every job saw the identical derived seed.
func TestMapSeedsIndependentOfSchedule(t *testing.T) {
	const n = 16
	collect := func(parallel int) []int64 {
		seeds := make([]int64, n)
		jobs := make([]Job[int64], n)
		for i := 0; i < n; i++ {
			i := i
			jobs[i] = Job[int64]{
				Key: fmt.Sprintf("cell/%d", i),
				Run: func(_ context.Context, seed int64) (int64, error) { return seed, nil },
			}
		}
		got, err := Map(context.Background(), Options{Parallel: parallel, RootSeed: 42}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		copy(seeds, got)
		return seeds
	}
	serial := collect(1)
	for _, p := range []int{2, 8} {
		par := collect(p)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("parallel=%d: job %d seed %d, serial saw %d", p, i, par[i], serial[i])
			}
		}
	}
	for i := range serial {
		if want := DeriveSeed(42, fmt.Sprintf("cell/%d", i)); serial[i] != want {
			t.Fatalf("job %d seed %d, want DeriveSeed %d", i, serial[i], want)
		}
	}
}

// TestMapPanicRecovered checks a panicking job surfaces as an error naming
// the job, with the other jobs unaffected and no crash.
func TestMapPanicRecovered(t *testing.T) {
	jobs := []Job[int]{
		{Key: "fine", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "bomb", Run: func(context.Context, int64) (int, error) { panic("boom") }},
		{Key: "also-fine", Run: func(context.Context, int64) (int, error) { return 3, nil }},
	}
	_, err := Map(context.Background(), Options{Parallel: 3}, jobs)
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if !strings.Contains(err.Error(), `"bomb"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not identify the panicking job: %v", err)
	}
}

// TestMapFirstErrorByIndex checks the reported error is the lowest-index
// failure — the one a serial loop would hit — not whichever failed first in
// wall time.
func TestMapFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	jobs := []Job[int]{
		{Key: "0", Run: func(context.Context, int64) (int, error) {
			time.Sleep(20 * time.Millisecond) // fails last in wall time
			return 0, errLow
		}},
		{Key: "1", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "2", Run: func(context.Context, int64) (int, error) { return 0, errHigh }},
	}
	for _, parallel := range []int{1, 3} {
		_, err := Map(context.Background(), Options{Parallel: parallel}, jobs)
		if !errors.Is(err, errLow) {
			t.Fatalf("parallel=%d: got %v, want the lowest-index failure %v", parallel, err, errLow)
		}
	}
}

// TestMapCancelDrains cancels mid-run and checks Map returns ctx.Err() only
// after the pool has fully drained: no worker goroutine survives the call.
func TestMapCancelDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	const n = 64
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job/%d", i),
			Run: func(ctx context.Context, _ int64) (int, error) {
				ran.Add(1)
				if i == 2 {
					cancel()
				}
				time.Sleep(time.Millisecond)
				return i, nil
			},
		}
	}
	_, err := Map(ctx, Options{Parallel: 4}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation did not drop pending jobs: %d of %d ran", got, n)
	}
	// The pool must not leak goroutines; allow the runtime a moment to
	// retire the drained workers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Map, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapCompletedRunStaysValidAfterLateCancel checks a cancellation that
// lands after every job was picked up still yields the full result set.
func TestMapCompletedRunStaysValidAfterLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "b", Run: func(context.Context, int64) (int, error) {
			cancel() // fires once every job has been started (Parallel=2)
			return 2, nil
		}},
	}
	got, err := Map(ctx, Options{Parallel: 2}, jobs)
	if err != nil {
		t.Fatalf("fully-started run reported %v", err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("results = %v", got)
	}
}

// TestMapRunsEveryClaimedJob repeats the late-cancel case until the cancel
// lands between another worker claiming job "a" and running it: a claimed
// job must still run, so every repetition yields the full result set.
func TestMapRunsEveryClaimedJob(t *testing.T) {
	for rep := 0; rep < 20000; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		jobs := []Job[int]{
			{Key: "a", Run: func(context.Context, int64) (int, error) { return 1, nil }},
			{Key: "b", Run: func(context.Context, int64) (int, error) {
				cancel()
				return 2, nil
			}},
		}
		got, err := Map(ctx, Options{Parallel: 2}, jobs)
		cancel()
		if err != nil || got[0] != 1 || got[1] != 2 {
			t.Fatalf("repetition %d: results %v, error %v; want [1 2] and none", rep, got, err)
		}
	}
}

// TestMapEmptyAndNilContext covers the degenerate inputs.
func TestMapEmptyAndNilContext(t *testing.T) {
	got, err := Map(nil, Options{}, []Job[int]{ //nolint:staticcheck // nil ctx is part of the contract
		{Key: "only", Run: func(context.Context, int64) (int, error) { return 9, nil }},
	})
	if err != nil || len(got) != 1 || got[0] != 9 {
		t.Fatalf("got %v, %v", got, err)
	}
	empty, err := Map[int](context.Background(), Options{}, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty job set: %v, %v", empty, err)
	}
}

// TestMapMetrics checks the scheduler's telemetry lands in the registry.
func TestMapMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := []Job[int]{
		{Key: "ok/0", Run: func(context.Context, int64) (int, error) { return 0, nil }},
		{Key: "ok/1", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "bad", Run: func(context.Context, int64) (int, error) { return 0, errors.New("nope") }},
	}
	if _, err := Map(context.Background(), Options{Name: "mtest", Parallel: 2, Obs: reg}, jobs); err == nil {
		t.Fatal("expected the failing job's error")
	}
	s := reg.Snapshot()
	for key, want := range map[string]uint64{
		"sched.jobs.queued{pool=mtest}": 3,
		"sched.jobs.done{pool=mtest}":   2,
		"sched.jobs.failed{pool=mtest}": 1,
	} {
		if got := s.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d (snapshot %+v)", key, got, want, s.Counters)
		}
	}
	if s.Histograms["sched.job.run.us{pool=mtest}"].N != 3 {
		t.Errorf("run-latency histogram n = %d, want 3", s.Histograms["sched.job.run.us{pool=mtest}"].N)
	}
	if s.Histograms["sched.queue.latency.us{pool=mtest}"].N != 3 {
		t.Errorf("queue-latency histogram n = %d, want 3", s.Histograms["sched.queue.latency.us{pool=mtest}"].N)
	}
	// Every job got a detached span, and ending one span never force-closed
	// a concurrent sibling.
	var jobSpans int
	for _, sp := range reg.Spans() {
		if strings.HasPrefix(sp.Name, "mtest.") {
			jobSpans++
			if sp.Parent != -1 {
				t.Errorf("job span %s has parent %d, want detached", sp.Name, sp.Parent)
			}
		}
	}
	if jobSpans != 3 {
		t.Errorf("job spans = %d, want 3", jobSpans)
	}
}

// TestMapParallelDefaultsToGOMAXPROCS pins the default worker count.
func TestMapParallelDefaultsToGOMAXPROCS(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 4
	jobs := make([]Job[int], n)
	var peak, cur atomic.Int64
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("j/%d", i),
			Run: func(context.Context, int64) (int, error) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
				return 0, nil
			},
		}
	}
	if _, err := Map(context.Background(), Options{}, jobs); err != nil {
		t.Fatal(err)
	}
	if int(peak.Load()) > runtime.GOMAXPROCS(0) {
		t.Fatalf("concurrency peaked at %d, above the GOMAXPROCS default %d",
			peak.Load(), runtime.GOMAXPROCS(0))
	}
}

// TestMapCancelReturnsPromptly pins the serving-layer requirement: when jobs
// honour their context (as every sweep cell does), cancelling mid-Map makes
// Map return well before the jobs' natural runtime, with the partial-result
// cancellation error — not the partial results.
func TestMapCancelReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 16
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("cell/%d", i),
			Run: func(jctx context.Context, _ int64) (int, error) {
				select {
				case <-jctx.Done(): // a well-behaved long cell
					return 0, jctx.Err()
				case <-time.After(30 * time.Second):
					return i, nil
				}
			},
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Map(ctx, Options{Parallel: 4}, jobs)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Map took %v to notice the cancellation", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled Map leaked partial results: %v", res)
	}
}

// TestMapPanicRecordsJobKey checks the panic-recovery path attributes the
// failure to the job: the key appears in the returned error, the panicked
// counter, and the job's telemetry span.
func TestMapPanicRecordsJobKey(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := []Job[int]{
		{Key: "steady", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{Key: "kaboom", Run: func(context.Context, int64) (int, error) { panic("blew a fuse") }},
	}
	_, err := Map(context.Background(), Options{Name: "p", Parallel: 2, Obs: reg}, jobs)
	if err == nil || !strings.Contains(err.Error(), `"kaboom"`) || !strings.Contains(err.Error(), "blew a fuse") {
		t.Fatalf("error does not attribute the panic to the job: %v", err)
	}
	lbl := obs.L("pool", "p")
	if got := reg.Counter("sched.jobs.panicked", lbl).Value(); got != 1 {
		t.Fatalf("panicked counter = %d, want 1", got)
	}
	if got := reg.Counter("sched.jobs.failed", lbl).Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	found := false
	for _, sp := range reg.Spans() {
		if sp.Name != "p.kaboom" {
			continue
		}
		found = true
		hasErr := false
		for _, a := range sp.Attrs {
			if a.Key == "error" && strings.Contains(a.Value, "blew a fuse") {
				hasErr = true
			}
		}
		if !hasErr {
			t.Fatalf("span %q lacks the panic error attr: %+v", sp.Name, sp.Attrs)
		}
	}
	if !found {
		t.Fatal("no telemetry span recorded for the panicking job")
	}
}
