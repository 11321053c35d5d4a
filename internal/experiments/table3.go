package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/pmu"
)

// Table3Scene is one (CPU, workload) block of the paper's Table 3: the same
// probe run under two conditions, with the PMU toolset's differential
// analysis between them.
type Table3Scene struct {
	Name   string
	CPU    string
	LabelA string // e.g. "Jcc not trigger" / "unmapped"
	LabelB string // e.g. "Jcc trigger" / "mapped"
	Diffs  []pmu.Diff
	// KeyEvents are the paper's rows for this scene with expected
	// directions: +1 (B larger), -1 (B smaller), 0 (unchanged).
	KeyEvents []KeyEvent
}

// KeyEvent is one paper row: expected direction and whether we matched it.
type KeyEvent struct {
	Event   string
	PaperA  float64
	PaperB  float64
	WantDir int
	GotA    float64
	GotB    float64
	GotDir  int
	Match   bool
}

const table3Runs = 24

func dirOf(a, b float64) int {
	const eps = 0.5
	switch {
	case b > a+eps:
		return 1
	case b < a-eps:
		return -1
	}
	return 0
}

// evaluateKeys fills measured values and direction matches from raw runs.
func evaluateKeys(keys []KeyEvent, a, b []pmu.Run) []KeyEvent {
	mean := func(runs []pmu.Run, e pmu.Event) float64 {
		var s float64
		for _, r := range runs {
			s += float64(r.Get(e))
		}
		return s / float64(len(runs))
	}
	out := make([]KeyEvent, len(keys))
	for i, k := range keys {
		e, ok := pmu.ByName(k.Event)
		if !ok {
			k.Match = false
			out[i] = k
			continue
		}
		k.GotA = mean(a, e)
		k.GotB = mean(b, e)
		k.GotDir = dirOf(k.GotA, k.GotB)
		k.Match = k.GotDir == k.WantDir
		out[i] = k
	}
	return out
}

// Table3 runs all four Table 3 scenes and the KASLR DTLB scene. Each scene
// boots its own machine, so the five scenes are independent cells; the
// per-scene seed offsets (seed..seed+4) are the original serial sweep's.
func Table3(ex Exec, seed int64) ([]Table3Scene, error) {
	return runCells(ex, "table3", seed, []cell[Table3Scene]{
		// Scene: TET-CC on i7-6700 (branch/stall events).
		{key: "cc-i7-6700", model: cpu.I7_6700(), cfg: kernel.Config{KASLR: true}, seed: seed,
			run: sceneCC([]KeyEvent{
				{Event: "BR_MISP_EXEC.INDIRECT", PaperA: 0, PaperB: 1, WantDir: 1},
				{Event: "BR_MISP_EXEC.ALL_BRANCHES", PaperA: 0, PaperB: 2, WantDir: 1},
				{Event: "RESOURCE_STALLS.ANY", PaperA: 15, PaperB: 21, WantDir: 1},
			})},
		// Scene: TET-CC on i7-7700 (frontend DSB/MITE shift — also Fig. 3).
		{key: "cc-i7-7700", model: cpu.I7_7700(), cfg: kernel.Config{KASLR: true}, seed: seed + 1,
			run: sceneCC([]KeyEvent{
				{Event: "IDQ.DSB_UOPS", PaperA: 119, PaperB: 115, WantDir: -1},
				{Event: "IDQ.MS_MITE_UOPS", PaperA: 77, PaperB: 97, WantDir: 1},
				{Event: "IDQ.ALL_MITE_CYCLES_ANY_UOPS", PaperA: 35, PaperB: 45, WantDir: 1},
				{Event: "UOPS_EXECUTED.CORE_CYCLES_NONE", PaperA: 110, PaperB: 116, WantDir: 1},
			})},
		// Scene: TET-MD on i7-7700 (backend stalls and recovery).
		{key: "md-i7-7700", model: cpu.I7_7700(), cfg: kernel.Config{KASLR: true}, seed: seed + 2, run: sceneMD},
		// Scene: TET-CC on Ryzen 5 5600G (AMD events).
		{key: "cc-ryzen-5600g", model: cpu.Ryzen5600G(), cfg: kernel.Config{KASLR: true}, seed: seed + 3,
			run: sceneCC([]KeyEvent{
				{Event: "de_dis_dispatch_token_stalls2.retire_token_stall", PaperA: 4, PaperB: 84, WantDir: 1},
				{Event: "de_dis_uop_queue_empty_di0", PaperA: 182, PaperB: 195, WantDir: 1},
				{Event: "ic_fw32", PaperA: 661, PaperB: 690, WantDir: 1},
			})},
		// Scene: TET-KASLR on i9-10980XE (memory-subsystem events,
		// unmapped vs mapped).
		{key: "kaslr-i9-10980xe", model: cpu.I9_10980XE(), cfg: kernel.Config{KASLR: true}, seed: seed + 4,
			run: sceneKASLR},
	})
}

// scene runs probe table3Runs times with side A (false), then table3Runs
// times with side B (true), snapshotting the PMU around each run, and
// builds the scene from the two collections. Collection stops at the first
// probe error, which scene returns instead of a scene built from partial
// runs.
func scene(m *cpu.Machine, name, labelA, labelB string, keys []KeyEvent, probe func(side bool) error) (Table3Scene, error) {
	var probeErr error
	collect := func(side bool) []pmu.Run {
		return pmu.Collect(m.PMU, table3Runs, func() {
			if probeErr == nil {
				probeErr = probe(side)
			}
		})
	}
	runA := collect(false)
	runB := collect(true)
	if probeErr != nil {
		return Table3Scene{}, probeErr
	}
	return Table3Scene{
		Name:      name,
		CPU:       m.Model.Name,
		LabelA:    labelA,
		LabelB:    labelB,
		Diffs:     pmu.Differential(runA, runB, pmu.EventsForVendor(m.Model.Vendor), 3.0),
		KeyEvents: evaluateKeys(keys, runA, runB),
	}, nil
}

// sceneCC measures the covert-channel probe with the transient Jcc not
// triggered (A) vs triggered (B), evaluating keys.
func sceneCC(keys []KeyEvent) func(*kernel.Kernel) (Table3Scene, error) {
	return func(k *kernel.Kernel) (Table3Scene, error) {
		m := k.Machine()
		pr, err := core.NewProber(m, core.SuppressTSX, false)
		if err != nil {
			return Table3Scene{}, err
		}
		probe := func(trigger bool) error {
			_, err := pr.ProbeStable(core.UnmappedVA, trigger)
			return err
		}
		// Warm up.
		for i := 0; i < 16; i++ {
			if err := probe(false); err != nil {
				return Table3Scene{}, err
			}
		}
		return scene(m, "TET-CC", "Jcc not trigger", "Jcc trigger", keys, probe)
	}
}

// sceneMD measures the TET-MD probe with a non-matching (A) vs matching (B)
// test value.
func sceneMD(k *kernel.Kernel) (Table3Scene, error) {
	secret := byte('S')
	k.WriteSecret([]byte{secret})
	m := k.Machine()
	pr, err := core.NewProber(m, core.SuppressTSX, true)
	if err != nil {
		return Table3Scene{}, err
	}
	probe := func(test uint64) error {
		// De-train, then measure — the sweep's steady state.
		for i := 0; i < 2; i++ {
			if _, err := pr.Probe(k.SecretVA(), 256, 0); err != nil {
				return err
			}
		}
		_, err := pr.Probe(k.SecretVA(), test, 0)
		return err
	}
	for i := 0; i < 16; i++ {
		if err := probe(0); err != nil {
			return Table3Scene{}, err
		}
	}
	keys := []KeyEvent{
		{Event: "RESOURCE_STALLS.ANY", PaperA: 15, PaperB: 21, WantDir: 1},
		{Event: "CYCLE_ACTIVITY.STALLS_TOTAL", PaperA: 320, PaperB: 331, WantDir: 1},
		{Event: "UOPS_EXECUTED.STALL_CYCLES", PaperA: 325, PaperB: 332, WantDir: 1},
		{Event: "INT_MISC.RECOVERY_CYCLES_ANY", PaperA: 24, PaperB: 29, WantDir: 1},
		{Event: "INT_MISC.CLEAR_RESTEER_CYCLES", PaperA: 27, PaperB: 39, WantDir: 1},
		{Event: "RS_EVENTS.EMPTY_CYCLES", PaperA: 202, PaperB: 218, WantDir: 1},
	}
	return scene(m, "TET-MD", "Jcc not trigger", "Jcc trigger", keys, func(match bool) error {
		if match {
			return probe(uint64(secret))
		}
		return probe(uint64(secret) + 1)
	})
}

// sceneKASLR measures the KASLR probe's DTLB behaviour: unmapped (A) vs
// mapped (B) targets, each probe preceded by a TLB eviction and a warm probe
// (the attack's steady state).
func sceneKASLR(k *kernel.Kernel) (Table3Scene, error) {
	m := k.Machine()
	pr, err := core.NewProber(m, core.SuppressTSX, true)
	if err != nil {
		return Table3Scene{}, err
	}
	unmapped := k.ProbeTarget((k.BaseSlot() + kernel.ImageSlots + 7) % kernel.NumSlots)
	keys := []KeyEvent{
		{Event: "DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK", PaperA: 2, PaperB: 0, WantDir: -1},
		{Event: "DTLB_LOAD_MISSES.WALK_ACTIVE", PaperA: 62, PaperB: 0, WantDir: -1},
	}
	return scene(m, "TET-KASLR", "unmapped", "mapped", keys, func(mapped bool) error {
		target := unmapped
		if mapped {
			target = k.KASLRBase()
		}
		k.EvictTLB()
		// The warm probe fills the TLB iff target is mapped; the second
		// probe is the measured one.
		for i := 0; i < 2; i++ {
			if _, err := pr.Probe(target, 256, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// RenderTable3 formats the scenes with paper-vs-measured key rows.
func RenderTable3(scenes []Table3Scene) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3: Key performance monitor counter values (paper vs measured means)")
	for _, s := range scenes {
		fmt.Fprintf(&b, "\n%s — %s  (%s vs %s)\n", s.CPU, s.Name, s.LabelA, s.LabelB)
		fmt.Fprintf(&b, "  %-50s %10s %10s | %10s %10s %6s\n",
			"Event", "paper A", "paper B", "meas A", "meas B", "dir")
		for _, kv := range s.KeyEvents {
			fmt.Fprintf(&b, "  %-50s %10.0f %10.0f | %10.1f %10.1f %6s\n",
				kv.Event, kv.PaperA, kv.PaperB, kv.GotA, kv.GotB, check(kv.Match))
		}
	}
	return b.String()
}
