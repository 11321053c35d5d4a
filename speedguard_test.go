package whisper_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"runtime"
	"testing"
	"time"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/pipeline"
	"whisper/internal/snapshot"
)

// benchRecord is the BENCH_ci.json schema the CI bench-regression job
// archives per commit.
type benchRecord struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	Workers    int     `json:"workers"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// Gate names the criterion this run was judged by: "speedup" on
	// multi-core runners, "serial-wallclock" on single-core ones.
	Gate string `json:"gate"`
	// SerialBudgetNs is the serial wall-clock ceiling the single-core gate
	// enforces (also recorded on multi-core runs for trend plots).
	SerialBudgetNs int64 `json:"serial_budget_ns"`
}

// serialBudget is the single-core gate: the reduced RunAll workload must
// finish a serial pass within this wall-clock budget. The seed-era simulator
// took ~3.1 s on a 1-vCPU container; after the hot-path overhaul the same
// workload runs in well under half that, so the budget only trips when the
// simulator's single-thread cost regresses by several times — not on runner
// jitter.
const serialBudget = 12 * time.Second

// TestParallelSpeedupGuard is the CI bench-regression gate: a full RunAll on
// four sched workers must beat the serial run. The threshold is deliberately
// generous (1.05x, vs the ~2x a 4-core runner actually delivers) so the gate
// only trips when the scheduler genuinely stops parallelising — not on
// runner jitter. Enabled by CI_BENCH_GUARD=1; always writes BENCH_ci.json
// for the artifact upload when enabled.
// TestProbeSteadyStateZeroAlloc pins the hot-path overhaul's allocation
// contract: once the uop freelist, the ring buffers, the decoded-program
// cache, and the DSB are warm, a full transient probe — fetch, speculate,
// fault, squash, time — allocates nothing. Any append-grown queue or per-uop
// heap object reintroduced into the inner loop trips this immediately.
func TestProbeSteadyStateZeroAlloc(t *testing.T) {
	m, err := cpu.NewMachine(cpu.I7_7700(), 13)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(m, kernel.Config{KASLR: true})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewProber(k.Machine(), core.SuppressTSX, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ { // warm rings, freelist, decode cache, DSB
		if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state probe allocates %.2f objects/op, want 0", avg)
	}
}

// TestInvariantCheckerFreeWhenDetached pins the debug-hook contract behind
// the fuzzing subsystem: the pipeline.InvariantChecker hook is nil-guarded on
// the hot path, so production runs (nil checker — every CLI and server path)
// keep the steady-state zero-alloc property above, and an attached checker is
// a pure observer — the simulated cycle count of a probe campaign is
// bit-identical with and without it.
func TestInvariantCheckerFreeWhenDetached(t *testing.T) {
	campaign := func(inv *pipeline.InvariantChecker) uint64 {
		m, err := cpu.NewMachine(cpu.I7_7700(), 13)
		if err != nil {
			t.Fatal(err)
		}
		if inv != nil {
			m.Pipe.SetInvariantChecker(inv)
		}
		k, err := kernel.Boot(m, kernel.Config{KASLR: true})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.NewProber(k.Machine(), core.SuppressTSX, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
				t.Fatal(err)
			}
		}
		return m.Pipe.Cycle()
	}

	bare := campaign(nil)
	inv := pipeline.NewInvariantChecker()
	audited := campaign(inv)
	if bare != audited {
		t.Fatalf("invariant checker perturbs simulation: %d cycles audited, %d bare", audited, bare)
	}
	if err := inv.Err(); err != nil {
		t.Fatalf("probe campaign violates pipeline invariants: %v", err)
	}
	if inv.Checks() == 0 {
		t.Fatal("checker attached but never ran")
	}
}

// TestRSBProbeStepBudget is a host-independent speed guard for Table 2's
// most expensive attack. The TET-RSB gadget's wrong path fills the IDQ
// behind an lfence while a flushed return address loads, and fetch spins
// into the full queue for most of the window; skip-ahead fast-forwards that
// spin, so one probe needs about 40 step passes (InvariantChecker.Checks())
// instead of about 244. The budget of 60 trips when the skip rule is lost,
// with no wall-clock threshold.
func TestRSBProbeStepBudget(t *testing.T) {
	const probes = 24 + 256 // LeakByte's warm-up plus one test value per byte
	const budget = 60       // step passes per probe
	secret := []byte("Whisper: timing the transient execution!")
	for _, model := range cpu.AllModels() {
		m, err := cpu.NewMachine(model, 13)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Boot(m, kernel.Config{KASLR: true})
		if err != nil {
			t.Fatal(err)
		}
		secretVA := uint64(kernel.UserDataBase + 0x300)
		pa, _ := k.UserAS().Translate(secretVA)
		m.Phys.StoreBytes(pa, secret)
		rsb, err := core.NewTETRSB(k)
		if err != nil {
			t.Fatal(err)
		}
		inv := pipeline.NewInvariantChecker()
		m.Pipe.SetInvariantChecker(inv)
		if _, err := rsb.LeakByte(secretVA); err != nil {
			t.Fatalf("%s: %v", model.Name, err)
		}
		if err := inv.Err(); err != nil {
			t.Fatalf("%s: %v", model.Name, err)
		}
		perProbe := float64(inv.Checks()) / probes
		t.Logf("%s: %.1f step passes per RSB probe", model.Name, perProbe)
		if perProbe > budget {
			t.Errorf("%s: %.1f step passes per RSB probe, budget %d — the full-IDQ fetch spin is being stepped cycle by cycle",
				model.Name, perProbe, budget)
		}
	}
}

// TestServeLogDisabledZeroAlloc pins the structured-logging contract on the
// hot serve path: with no logger on the context (logging disabled — the
// default for every direct CLI run), the guarded-log idiom used across
// internal/server, internal/experiments and internal/sched
//
//	if log := logging.From(ctx); log.Enabled(ctx, slog.LevelDebug) { ... }
//
// allocates nothing, and neither does reading the request ID. A With/Attr
// chain or fmt.Sprintf smuggled ahead of the Enabled check trips this.
func TestServeLogDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	avg := testing.AllocsPerRun(1000, func() {
		if log := logging.From(ctx); log.Enabled(ctx, slog.LevelDebug) {
			log.LogAttrs(ctx, slog.LevelDebug, "unreachable")
		}
		if id := obs.RequestIDFrom(ctx); id != "" {
			t.Fatal("bare context carries an ID")
		}
	})
	if avg != 0 {
		t.Fatalf("disabled serve-path logging allocates %.2f objects/op, want 0", avg)
	}
}

// TestSnapshotForkZeroAlloc pins the snapshot subsystem's allocation
// contract: forking a captured warm-boot checkpoint into a pooled machine
// allocates nothing once the pool is warm. The fork path is AliasBase (O(1)
// copy-on-write physical aliasing) plus LoadImage (O(valid lines) cache
// replay) into the target's existing backing storage; any per-fork map,
// slice, or page allocation reintroduced there trips this immediately.
// Machine-level Fork is asserted — ForkKernel legitimately allocates the
// one Kernel view struct on top.
func TestSnapshotForkZeroAlloc(t *testing.T) {
	m, err := cpu.NewMachine(cpu.I7_7700(), 16)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(m, kernel.Config{KASLR: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.CaptureKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	pool := cpu.NewPool()
	for i := 0; i < 8; i++ { // warm the pool and the target's page freelist
		mc, err := snap.Fork(pool)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(mc)
	}
	avg := testing.AllocsPerRun(200, func() {
		mc, err := snap.Fork(pool)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(mc)
	})
	if avg != 0 {
		t.Fatalf("steady-state snapshot fork allocates %.2f objects/op, want 0", avg)
	}
}

// TestSnapshotForkBeatsReboot is the snapshot library's wall-clock gate:
// restoring a warm-boot checkpoint into a pooled machine must be faster than
// re-booting the kernel on that machine, or forking is a pure loss for any
// caller that replays one warm machine. The margin is generous (fork must
// merely win; measured ~4x faster) so the gate trips on a real regression —
// a fork path that quietly re-copies the full physical image or rescans full
// cache metadata — not on runner jitter.
func TestSnapshotForkBeatsReboot(t *testing.T) {
	cfg := kernel.Config{KASLR: true}
	m, err := cpu.NewMachine(cpu.I7_7700(), 16)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.CaptureKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	pool := cpu.NewPool()

	const iters = 200
	forkLoop := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fk, err := snap.ForkKernel(pool)
			if err != nil {
				t.Fatal(err)
			}
			pool.Put(fk.Machine())
		}
		return time.Since(start)
	}
	rm, err := cpu.NewMachine(cpu.I7_7700(), 16)
	if err != nil {
		t.Fatal(err)
	}
	rebootLoop := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := kernel.Reboot(rm, cfg, 16); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	// Warm both paths, then take the best of 3 to shed scheduler/GC noise.
	forkLoop()
	rebootLoop()
	fork, reboot := forkLoop(), rebootLoop()
	for i := 0; i < 2; i++ {
		if d := forkLoop(); d < fork {
			fork = d
		}
		if d := rebootLoop(); d < reboot {
			reboot = d
		}
	}
	t.Logf("fork %v, reboot %v for %d cells (%.1fx)", fork, reboot, iters,
		float64(reboot)/float64(fork))
	if fork >= reboot {
		t.Fatalf("snapshot fork slower than reboot: %v vs %v per %d cells — fork path regression",
			fork, reboot, iters)
	}
}

func TestParallelSpeedupGuard(t *testing.T) {
	if os.Getenv("CI_BENCH_GUARD") == "" {
		t.Skip("set CI_BENCH_GUARD=1 to run the speedup gate")
	}
	const workers = 4
	params := experiments.DefaultSweepParams()
	params.ThroughputBytes = 4
	params.KASLRReps = 3
	params.Fig1bBatches = 3
	run := func(parallel int) time.Duration {
		// Warm-up run eats one-time costs, then take the best of 3 to shed
		// scheduler/GC noise on shared runners.
		if _, err := experiments.RunAll(experiments.Exec{Parallel: parallel}, params); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := experiments.RunAll(experiments.Exec{Parallel: parallel}, params); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := run(1)
	parallel := run(workers)
	speedup := float64(serial) / float64(parallel)

	gate := "speedup"
	if runtime.NumCPU() < 2 {
		gate = "serial-wallclock"
	}
	rec := benchRecord{
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		Workers:        workers,
		SerialNs:       serial.Nanoseconds(),
		ParallelNs:     parallel.Nanoseconds(),
		Speedup:        speedup,
		Gate:           gate,
		SerialBudgetNs: serialBudget.Nanoseconds(),
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ci.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %v, parallel(%d) %v, speedup %.2fx, gate %s", serial, workers, parallel, speedup, gate)

	if runtime.NumCPU() < 2 {
		// A single hardware thread cannot show a speedup, but it can still
		// catch the simulator getting slower: gate on the serial wall-clock
		// instead of the parallel/serial ratio.
		if serial > serialBudget {
			t.Fatalf("serial RunAll took %v, budget %v — single-thread simulator regression", serial, serialBudget)
		}
		return
	}
	if speedup < 1.05 {
		t.Fatalf("parallel RunAll no faster than serial: %.2fx (serial %v, parallel %v) — scheduler regression",
			speedup, serial, parallel)
	}
}
