// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machines: Fig. 1b (ToTE frequency plot),
// Table 1 (taxonomy), Table 2 (attack matrix), Table 3 (PMU counters),
// Fig. 3/4 (frontend and transient-flow analyses), the §4.1 throughput
// numbers, the §4.5 KASLR suite and the §6 mitigation matrix.
//
// One ordered table (artefacts, in report.go) is the only list of these
// experiments: RunSweep serves each by name, RunAll bundles ten of them into
// a Report, and cmd/tetbench prints them all. Every sweep is a list of
// independent cells, each a measurement on a machine of its own; runCells
// boots, runs and recycles them on a sched pool. The cmd/ tools and the
// repository's benchmarks are thin wrappers over this package;
// EXPERIMENTS.md records paper-vs-measured for each artefact.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/sched"
	"whisper/internal/snapshot"
)

// DefaultSeed makes every experiment reproducible by default.
const DefaultSeed = 7

// Exec carries the cross-cutting execution knobs every sweep shares: the
// cancellation context, the worker count for the internal/sched pool the
// sweep shards its independent cells over, and the telemetry registry.
//
// The zero value is valid and means: background context, GOMAXPROCS
// workers, no telemetry. Every sweep's output is byte-identical at every
// Parallel setting — each cell's machine boots from a seed fixed by the
// cell's identity, and the scheduler collects results in cell order — so
// Parallel only trades wall-clock for CPU.
type Exec struct {
	Ctx      context.Context
	Parallel int
	Obs      *obs.Registry
}

// Serial returns an Exec that runs every cell on one worker — the reference
// ordering the parallel runs are measured against.
func Serial() Exec { return Exec{Parallel: 1} }

// ctx resolves the context, defaulting to Background.
func (ex Exec) ctx() context.Context {
	if ex.Ctx == nil {
		return context.Background()
	}
	return ex.Ctx
}

// opts builds the scheduler options for one sweep's pool.
func (ex Exec) opts(name string, seed int64) sched.Options {
	return sched.Options{Name: name, Parallel: ex.Parallel, RootSeed: seed, Obs: ex.Obs}
}

// machinePool recycles machines across sweep cells and repetitions. A pooled
// machine is Reset to the cell's seed before reuse, which is bit-identical to
// building it fresh, so cell results are independent of which (if any)
// machine is recycled — the property the determinism gate and the golden
// trace tests pin.
var machinePool = cpu.NewPool()

// MachinePoolStats reports the sweep machine pool's reuse counters. whisperd
// publishes them on /metrics, making cross-request machine reuse observable.
func MachinePoolStats() cpu.PoolStats { return machinePool.Stats() }

// SnapshotMemoStats reports sweep boots in the shape of the warm-state
// memo's old statistics: every boot is a miss, and hits and resident bytes
// stay 0.
//
// Deprecated: sweep cells no longer fork from a warm-state memo; every cell
// boots (MachinePoolStats counts the boots and their machine reuse). This
// remains only for readers of the old counters.
func SnapshotMemoStats() snapshot.Stats {
	return snapshot.Stats{Misses: machinePool.Stats().Gets}
}

// boot builds a machine+kernel pair for one sweep cell: a pooled machine
// Reset to the cell's seed, then a fresh kernel boot on it.
func boot(model cpu.Model, cfg kernel.Config, seed int64) (*kernel.Kernel, error) {
	m, err := machinePool.Get(model, seed)
	if err != nil {
		return nil, err
	}
	return kernel.Boot(m, cfg)
}

// recycle returns a booted kernel's machine to the pool. Callers must have
// reduced the cell's results to plain values first: after recycle, nothing
// may touch k, its machine, or probers built on them.
func recycle(k *kernel.Kernel) {
	if k != nil {
		machinePool.Put(k.Machine())
	}
}

// cell is one independent measurement of a sweep: run on a machine of model,
// booted with cfg from seed. The seed is fixed by the cell's identity, never
// by the worker that runs it.
type cell[T any] struct {
	key   string
	model cpu.Model
	cfg   kernel.Config
	seed  int64
	run   func(k *kernel.Kernel) (T, error)
}

// runCells runs every cell as one job of the sched pool named pool (root
// seed seed): it boots the cell's machine from the machine pool, runs the
// cell on it and recycles the machine. Results come back in cell order and
// a failure reports the lowest-index cell's error, so a sweep's output is
// byte-identical at any Exec.Parallel.
func runCells[T any](ex Exec, pool string, seed int64, cells []cell[T]) ([]T, error) {
	jobs := make([]sched.Job[T], len(cells))
	for i, c := range cells {
		jobs[i] = sched.Job[T]{Key: c.key, Run: func(context.Context, int64) (T, error) {
			k, err := boot(c.model, c.cfg, c.seed)
			if err != nil {
				var zero T
				return zero, err
			}
			defer recycle(k)
			return c.run(k)
		}}
	}
	return sched.Map(ex.ctx(), ex.opts(pool, seed), jobs)
}

// check marks an outcome with the paper's ✓/✗ glyphs.
func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// Table1 returns the static side-channel taxonomy of the paper's Table 1.
// It is a positioning table, not a measurement; it is included so every
// numbered artefact of the paper has a generator.
func Table1() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: Comparison of Side Channel Attacks")
	fmt.Fprintf(&b, "%-10s %-34s %-34s %-22s\n", "Type", "Stateful", "Stateless", "Transient-Only")
	fmt.Fprintf(&b, "%-10s %-34s %-34s %-22s\n", "Direct",
		"Cache (Flush+Reload), BPU", "Port contention, AVX, EntryBleed", "TET-MD, TET-ZBL, TET-RSB")
	fmt.Fprintf(&b, "%-10s %-34s %-34s %-22s\n", "Indirect",
		"TLB (TLBleed, AnC)", "Binoculars", "TET-KASLR")
	return b.String()
}
