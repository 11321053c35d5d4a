package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/pmu"
	"whisper/internal/sched"
)

// Golden-trace regression pins the cycle-exact observable behaviour of the
// simulator — ToTE samples, ClearEvent sequences, phase cycle counts, and PMU
// counters — for one Fig. 1b cell and one KASLR probe pair. The golden
// strings below were captured on the pre-optimization pipeline (the seed of
// the hot-path overhaul); the arena/skip-ahead/decode-cache/machine-reuse
// paths must reproduce them bit for bit. Re-capture (only when an intended
// model change occurs) with:
//
//	GOLDEN_TRACE_CAPTURE=1 go test -run TestGoldenTraces -v ./internal/experiments
func clearTrace(b *strings.Builder, m *cpu.Machine) {
	for _, c := range m.Pipe.Clears() {
		fmt.Fprintf(b, " clear{%d %v %d}", c.Cycle, c.Kind, c.Cost)
	}
}

// goldenFig1bCell replays the first probes of Fig. 1b's batch/0 cell and
// formats every observable: per-test-value ToTE, the pipeline-clear sequence
// of each probe, per-phase cycle counts, and the headline PMU counters.
func goldenFig1bCell() (string, error) {
	var b strings.Builder
	seed := sched.DeriveSeed(DefaultSeed, "batch/0")
	k, err := boot(cpu.I7_7700(), kernel.Config{KASLR: true}, seed)
	if err != nil {
		return "", err
	}
	defer recycle(k)
	m := k.Machine()
	k.WriteSecret([]byte{'S'})
	pr, err := core.NewProber(m, core.SuppressTSX, true)
	if err != nil {
		return "", err
	}
	for i := 0; i < 16; i++ {
		if _, err := pr.Probe(k.SecretVA(), 256, 0); err != nil {
			return "", err
		}
	}
	fmt.Fprintf(&b, "warmup-end-cycle=%d\n", m.Pipe.Cycle())
	for tv := 0; tv < 16; tv++ {
		tote, err := pr.Probe(k.SecretVA(), uint64(tv), 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "tv=%d tote=%d", tv, tote)
		clearTrace(&b, m)
		fmt.Fprintln(&b)
	}
	// The secret value's probe is the one that triggers the transient Jcc.
	tote, err := pr.Probe(k.SecretVA(), uint64('S'), 0)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "tv=secret tote=%d", tote)
	clearTrace(&b, m)
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "sweep-end-cycle=%d\n", m.Pipe.Cycle())
	writePMULine(&b, m)
	return b.String(), nil
}

// goldenKASLRProbes replays a mapped-vs-unmapped KASLR probe pair on the
// paper's KASLR testbed part, using the signal-suppression path (whose
// 12k-cycle delivery stall exercises the skip-ahead machinery hardest).
func goldenKASLRProbes() (string, error) {
	var b strings.Builder
	seed := sched.DeriveSeed(DefaultSeed, "kaslr/golden")
	k, err := boot(cpu.I9_10980XE(), kernel.Config{KASLR: true}, seed)
	if err != nil {
		return "", err
	}
	defer recycle(k)
	m := k.Machine()
	pr, err := core.NewProber(m, core.SuppressSignal, true)
	if err != nil {
		return "", err
	}
	mapped := k.ProbeTarget(k.BaseSlot())
	unmapped := k.ProbeTarget((k.BaseSlot() + kernel.ImageSlots + 7) % kernel.NumSlots)
	for _, pc := range []struct {
		name   string
		target uint64
	}{{"mapped", mapped}, {"unmapped", unmapped}} {
		for rep := 0; rep < 4; rep++ {
			k.EvictTLB()
			if _, err := pr.Probe(pc.target, 1, 0); err != nil { // warm: fills TLB iff mapped
				return "", err
			}
			tote, err := pr.Probe(pc.target, 1, 0)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s rep=%d tote=%d", pc.name, rep, tote)
			clearTrace(&b, m)
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "%s-end-cycle=%d\n", pc.name, m.Pipe.Cycle())
	}
	writePMULine(&b, m)
	return b.String(), nil
}

func writePMULine(b *strings.Builder, m *cpu.Machine) {
	for _, ev := range []pmu.Event{
		pmu.CyclesTotal, pmu.InstRetired, pmu.UopsIssuedAny, pmu.MachineClearsCount,
		pmu.IntMiscRecoveryCycles, pmu.IntMiscClearResteerCycles,
		pmu.UopsIssuedStallCycles, pmu.UopsExecutedStallCycles,
		pmu.CycleActivityStallsTotal, pmu.RsEventsEmptyCycles,
		pmu.DeDisUopQueueEmptyDi0, pmu.DeDisDispatchTokenStalls2Retire,
		pmu.ResourceStallsAny, pmu.DtlbLoadMissesMissCausesAWalk,
		pmu.ItlbMissesWalkActive, pmu.IdqDsbUops, pmu.IdqMsMiteUops,
		pmu.BrMispExecAllBranches, pmu.MemLoadRetiredL1Miss,
	} {
		fmt.Fprintf(b, "pmu[%d]=%d\n", ev, m.PMU.Read(ev))
	}
}

// TestGoldenTraces runs each golden cell twice. Each cell recycles its
// machine, so the second run boots on a pooled machine Reset to the cell's
// seed, and both runs must equal the seed capture: which machine a cell gets
// is unobservable in its results.
func TestGoldenTraces(t *testing.T) {
	for _, c := range []struct {
		name string
		cell func() (string, error)
		want string
	}{
		{"Fig1b cell", goldenFig1bCell, goldenFig1b},
		{"KASLR probe", goldenKASLRProbes, goldenKASLR},
	} {
		for run := 0; run < 2; run++ {
			reuses := MachinePoolStats().Reuses
			got, err := c.cell()
			if err != nil {
				t.Fatal(err)
			}
			if os.Getenv("GOLDEN_TRACE_CAPTURE") != "" {
				t.Logf("%s golden:\n%s", c.name, got)
				break
			}
			if got != c.want {
				t.Errorf("%s trace (run %d) diverged from the seed capture:\n--- got ---\n%s--- want ---\n%s",
					c.name, run, got, c.want)
			}
			if run == 1 && MachinePoolStats().Reuses == reuses {
				t.Errorf("%s run 1 booted a fresh machine, want a recycled one", c.name)
			}
		}
	}
}

const goldenFig1b = `warmup-end-cycle=5307
tv=0 tote=190 clear{5423 1 34}
tv=1 tote=191 clear{5629 1 34}
tv=2 tote=190 clear{5835 1 34}
tv=3 tote=189 clear{6041 1 34}
tv=4 tote=189 clear{6247 1 34}
tv=5 tote=190 clear{6453 1 34}
tv=6 tote=189 clear{6659 1 34}
tv=7 tote=191 clear{6865 1 34}
tv=8 tote=191 clear{7071 1 34}
tv=9 tote=188 clear{7277 1 34}
tv=10 tote=187 clear{7483 1 34}
tv=11 tote=189 clear{7689 1 34}
tv=12 tote=191 clear{7895 1 34}
tv=13 tote=190 clear{8101 1 34}
tv=14 tote=190 clear{8307 1 34}
tv=15 tote=190 clear{8513 1 34}
tv=secret tote=194 clear{8630 0 14} clear{8719 1 40}
sweep-end-cycle=8815
pmu[35]=8815
pmu[36]=165
pmu[7]=396
pmu[3]=33
pmu[4]=2462
pmu[6]=10
pmu[8]=8617
pmu[9]=6699
pmu[14]=8552
pmu[13]=6567
pmu[32]=6992
pmu[33]=2462
pmu[12]=3
pmu[24]=1
pmu[26]=896
pmu[16]=133
pmu[20]=263
pmu[1]=2
pmu[27]=0
`

const goldenKASLR = `mapped rep=0 tote=12147 clear{314068 1 33}
mapped rep=1 tote=12148 clear{638453 1 33}
mapped rep=2 tote=12150 clear{962838 1 33}
mapped rep=3 tote=12150 clear{1287223 1 33}
mapped-end-cycle=1299272
unmapped rep=0 tote=12171 clear{1611847 1 33}
unmapped rep=1 tote=12173 clear{1936255 1 33}
unmapped rep=2 tote=12172 clear{2260663 1 33}
unmapped rep=3 tote=12171 clear{2585071 1 33}
unmapped-end-cycle=2597120
pmu[35]=2597120
pmu[36]=64
pmu[7]=160
pmu[3]=16
pmu[4]=192528
pmu[6]=0
pmu[8]=197040
pmu[9]=195388
pmu[14]=196992
pmu[13]=195324
pmu[32]=195532
pmu[33]=192528
pmu[12]=0
pmu[24]=12
pmu[26]=1120
pmu[16]=36
pmu[20]=124
pmu[1]=0
pmu[27]=0
`
