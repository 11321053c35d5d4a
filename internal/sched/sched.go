// Package sched is the deterministic parallel experiment engine: a
// worker-pool scheduler that shards independent simulation cells — one
// (model, seed, trial) per job — across goroutines while guaranteeing that
// the collected output is byte-identical to a serial run at any worker
// count.
//
// Three properties carry that guarantee:
//
//   - Seed derivation is positional, not temporal: every job's RNG seed is
//     DeriveSeed(rootSeed, job.Key), a stable hash of the job's identity.
//     Worker identity, completion order and pool size never touch a seed.
//   - Result collection is order-preserving: results land in a slice indexed
//     by job position, so callers iterate submission order regardless of
//     completion order.
//   - Error selection is positional too: every job runs (a job failure does
//     not abort its siblings), and Map reports the failure with the lowest
//     job index — exactly the error a serial loop would have hit first.
//
// Context cancellation is the only early exit: pending jobs are dropped, the
// workers drain, and Map returns ctx.Err() after the pool has fully stopped
// (no goroutine outlives the call). A panicking job is recovered and
// surfaced as that job's error with its stack attached.
//
// The pool exports its own telemetry through an internal/obs registry when
// one is supplied: jobs queued/done/failed counters, a worker gauge, queue
// and run latency histograms, and total worker busy time.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
)

// Job is one independent simulation cell.
type Job[T any] struct {
	// Key is the job's stable identity within the pool ("Intel Core
	// i7-7700", "batch/3", ...). It derives the job's seed and labels its
	// telemetry span, so keys should be unique within one Map call.
	Key string
	// Run executes the cell. seed is DeriveSeed(opts.RootSeed, Key); jobs
	// whose cell carries a legacy explicit seed may ignore it.
	Run func(ctx context.Context, seed int64) (T, error)
}

// Options configures one Map call.
type Options struct {
	// Name labels the pool's metrics and spans (e.g. "experiments").
	Name string
	// Parallel is the worker count; values <= 0 mean GOMAXPROCS. The
	// output is identical at every setting — Parallel trades wall-clock
	// for CPU, nothing else.
	Parallel int
	// RootSeed is the sweep's root seed; each job receives
	// DeriveSeed(RootSeed, job.Key).
	RootSeed int64
	// Obs receives scheduler telemetry; nil disables it.
	Obs *obs.Registry
}

// workers resolves the effective worker count for n jobs.
func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// label returns the pool's metric label set.
func (o Options) label() obs.Label {
	name := o.Name
	if name == "" {
		name = "pool"
	}
	return obs.L("pool", name)
}

// Map runs every job on a worker pool and returns their results in job
// order. See the package comment for the determinism contract.
func Map[T any](ctx context.Context, opts Options, jobs []Job[T]) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	nw := opts.workers(len(jobs))
	lbl := opts.label()
	opts.Obs.Gauge("sched.workers", lbl).Set(float64(nw))
	opts.Obs.Counter("sched.jobs.queued", lbl).Add(uint64(len(jobs)))

	errs := make([]error, len(jobs))
	var started atomic.Int64 // jobs actually picked up (cancellation drops the rest)
	var next atomic.Int64
	queuedAt := time.Now()
	var busy atomic.Int64 // summed worker run time, ns
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check before claiming: a claimed job always runs, so a
				// cancel that lands after the last claim cannot drop one.
				if ctx.Err() != nil {
					return // drain: stop picking up work, keep completed results
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				started.Add(1)
				opts.Obs.Histogram("sched.queue.latency.us", lbl).
					Observe(uint64(time.Since(queuedAt).Microseconds()))
				runOne(ctx, opts, lbl, jobs[i], &results[i], &errs[i], &busy)
			}
		}()
	}
	wg.Wait()
	opts.Obs.Counter("sched.worker.busy.us", lbl).Add(uint64(busy.Load() / 1e3))
	if ctx.Err() != nil && int(started.Load()) < len(jobs) {
		logging.From(ctx).LogAttrs(ctx, slog.LevelWarn, "sched pool cancelled",
			slog.String("pool", opts.Name),
			slog.Int("started", int(started.Load())),
			slog.Int("dropped", len(jobs)-int(started.Load())),
			slog.String("error", ctx.Err().Error()))
	}

	// A serial loop surfaces the first failure it meets; the parallel pool
	// reports the same one — the lowest-index error — so error behaviour is
	// schedule-independent too.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if int(started.Load()) < len(jobs) {
		// Cancelled before every job ran; the partial results are not the
		// deterministic full set, so report the cancellation.
		return nil, ctx.Err()
	}
	return results, nil
}

// runOne executes a single job with panic recovery and telemetry. The span
// inherits the request ID riding on ctx (if any), so a served request is
// traceable from its access-log line down to each scheduler job it sharded
// into; worker panics surface as error-level log events the same way.
func runOne[T any](ctx context.Context, opts Options, lbl obs.Label, job Job[T], out *T, errOut *error, busy *atomic.Int64) {
	sp := opts.Obs.StartRequestSpan(ctx, spanName(opts.Name, job.Key))
	start := time.Now()
	defer func() {
		d := time.Since(start)
		busy.Add(int64(d))
		opts.Obs.Histogram("sched.job.run.us", lbl).Observe(uint64(d.Microseconds()))
		if r := recover(); r != nil {
			*errOut = fmt.Errorf("sched: job %q panicked: %v\n%s", job.Key, r, debug.Stack())
			opts.Obs.Counter("sched.jobs.panicked", lbl).Inc()
			logging.From(ctx).LogAttrs(ctx, slog.LevelError, "sched job panicked",
				slog.String("pool", opts.Name), slog.String("job", job.Key),
				slog.String("panic", fmt.Sprint(r)))
		}
		if *errOut != nil {
			sp.Attr("error", (*errOut).Error())
			opts.Obs.Counter("sched.jobs.failed", lbl).Inc()
		} else {
			opts.Obs.Counter("sched.jobs.done", lbl).Inc()
		}
		sp.End(0)
	}()
	v, err := job.Run(ctx, DeriveSeed(opts.RootSeed, job.Key))
	if err != nil {
		*errOut = err
		return
	}
	*out = v
}

// spanName joins the pool name and job key into the telemetry span name.
func spanName(pool, key string) string {
	switch {
	case pool == "":
		return key
	case key == "":
		return pool
	}
	return pool + "." + key
}
