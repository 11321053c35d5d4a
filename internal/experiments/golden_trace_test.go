package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/pipeline"
	"whisper/internal/pmu"
	"whisper/internal/sched"
)

// Golden-trace regression pins the cycle-exact observable behaviour of the
// simulator — ToTE samples, ClearEvent sequences, phase cycle counts, and PMU
// counters — for one Fig. 1b cell, one KASLR probe pair and one TET-RSB byte
// leak per model, plus a digest of the whole Table 2 sweep. The golden
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

// goldenRSBByte replays one TET-Spectre-RSB LeakByte — Table 2's most
// expensive attack, whose wrong path fills the IDQ behind an lfence — on the
// given model. LeakByte keeps its probes to itself, so a tracer reads each
// probe's ToTE and clears when the gadget's halt retires.
func goldenRSBByte(model cpu.Model) (string, error) {
	var b strings.Builder
	seed := sched.DeriveSeed(DefaultSeed, "rsb/golden")
	k, err := boot(model, kernel.Config{KASLR: true}, seed)
	if err != nil {
		return "", err
	}
	defer recycle(k)
	m := k.Machine()
	secretVA := uint64(kernel.UserDataBase + 0x300)
	pa, _ := k.UserAS().Translate(secretVA)
	m.Phys.StoreBytes(pa, []byte{'W'})
	a, err := core.NewTETRSB(k)
	if err != nil {
		return "", err
	}
	probes := 0
	m.Pipe.SetTracer(func(r pipeline.TraceRecord) {
		if !r.Retired || !m.Pipe.ExecResult().Halted {
			return
		}
		// 24 warm-up probes with test value 256, then test values 0..255.
		tv := probes - 24
		probes++
		if tv < 0 {
			if tv == -1 {
				fmt.Fprintf(&b, "warmup-end-cycle=%d\n", m.Pipe.Cycle())
			}
			return
		}
		fmt.Fprintf(&b, "tv=%d tote=%d", tv, m.Pipe.Reg(isa.RDI)-m.Pipe.Reg(isa.RSI))
		clearTrace(&b, m)
		fmt.Fprintln(&b)
	})
	defer m.Pipe.SetTracer(nil)
	got, err := a.LeakByte(secretVA)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "leaked=%q end-cycle=%d\n", got, m.Pipe.Cycle())
	writePMULine(&b, m)
	for _, ev := range []pmu.Event{pmu.IcFw32, pmu.IdqAllMiteCyclesAnyUops} {
		fmt.Fprintf(&b, "pmu[%d]=%d\n", ev, m.PMU.Read(ev))
	}
	return b.String(), nil
}

// goldenTable2Digest is the SHA-256 of the default Table 2 sweep's JSON.
func goldenTable2Digest() (string, error) {
	rows, err := Table2(Serial(), DefaultTable2Params(), DefaultSeed)
	if err != nil {
		return "", err
	}
	js, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x\n", sha256.Sum256(js)), nil
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
		{"RSB byte i7-7700", func() (string, error) { return goldenRSBByte(cpu.I7_7700()) }, goldenRSBI7},
		{"RSB byte Ryzen 5 5600G", func() (string, error) { return goldenRSBByte(cpu.Ryzen5600G()) }, goldenRSBRyzen},
		{"Table 2 digest", goldenTable2Digest, goldenTable2},
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

const goldenRSBI7 = `warmup-end-cycle=8622
tv=0 tote=309 clear{8865 0 67}
tv=1 tote=309 clear{9190 0 67}
tv=2 tote=310 clear{9515 0 67}
tv=3 tote=308 clear{9840 0 67}
tv=4 tote=310 clear{10165 0 67}
tv=5 tote=310 clear{10490 0 67}
tv=6 tote=310 clear{10815 0 67}
tv=7 tote=308 clear{11140 0 67}
tv=8 tote=310 clear{11465 0 67}
tv=9 tote=308 clear{11790 0 67}
tv=10 tote=310 clear{12115 0 67}
tv=11 tote=309 clear{12440 0 67}
tv=12 tote=310 clear{12765 0 67}
tv=13 tote=310 clear{13090 0 67}
tv=14 tote=310 clear{13415 0 67}
tv=15 tote=310 clear{13740 0 67}
tv=16 tote=309 clear{14065 0 67}
tv=17 tote=308 clear{14390 0 67}
tv=18 tote=309 clear{14715 0 67}
tv=19 tote=309 clear{15040 0 67}
tv=20 tote=309 clear{15365 0 67}
tv=21 tote=309 clear{15690 0 67}
tv=22 tote=309 clear{16015 0 67}
tv=23 tote=309 clear{16340 0 67}
tv=24 tote=308 clear{16665 0 67}
tv=25 tote=310 clear{16990 0 67}
tv=26 tote=308 clear{17315 0 67}
tv=27 tote=308 clear{17640 0 67}
tv=28 tote=309 clear{17965 0 67}
tv=29 tote=307 clear{18290 0 67}
tv=30 tote=309 clear{18615 0 67}
tv=31 tote=308 clear{18940 0 67}
tv=32 tote=309 clear{19265 0 67}
tv=33 tote=309 clear{19590 0 67}
tv=34 tote=307 clear{19915 0 67}
tv=35 tote=310 clear{20240 0 67}
tv=36 tote=309 clear{20565 0 67}
tv=37 tote=308 clear{20890 0 67}
tv=38 tote=309 clear{21215 0 67}
tv=39 tote=310 clear{21540 0 67}
tv=40 tote=309 clear{21865 0 67}
tv=41 tote=308 clear{22190 0 67}
tv=42 tote=311 clear{22515 0 67}
tv=43 tote=309 clear{22840 0 67}
tv=44 tote=309 clear{23165 0 67}
tv=45 tote=309 clear{23490 0 67}
tv=46 tote=309 clear{23815 0 67}
tv=47 tote=308 clear{24140 0 67}
tv=48 tote=310 clear{24465 0 67}
tv=49 tote=307 clear{24790 0 67}
tv=50 tote=309 clear{25115 0 67}
tv=51 tote=310 clear{25440 0 67}
tv=52 tote=310 clear{25765 0 67}
tv=53 tote=309 clear{26090 0 67}
tv=54 tote=308 clear{26415 0 67}
tv=55 tote=309 clear{26740 0 67}
tv=56 tote=309 clear{27065 0 67}
tv=57 tote=309 clear{27390 0 67}
tv=58 tote=309 clear{27715 0 67}
tv=59 tote=309 clear{28040 0 67}
tv=60 tote=310 clear{28365 0 67}
tv=61 tote=309 clear{28690 0 67}
tv=62 tote=308 clear{29015 0 67}
tv=63 tote=308 clear{29340 0 67}
tv=64 tote=307 clear{29665 0 67}
tv=65 tote=309 clear{29990 0 67}
tv=66 tote=310 clear{30315 0 67}
tv=67 tote=308 clear{30640 0 67}
tv=68 tote=310 clear{30965 0 67}
tv=69 tote=310 clear{31290 0 67}
tv=70 tote=310 clear{31615 0 67}
tv=71 tote=309 clear{31940 0 67}
tv=72 tote=307 clear{32265 0 67}
tv=73 tote=306 clear{32590 0 67}
tv=74 tote=309 clear{32915 0 67}
tv=75 tote=309 clear{33240 0 67}
tv=76 tote=309 clear{33565 0 67}
tv=77 tote=308 clear{33890 0 67}
tv=78 tote=309 clear{34215 0 67}
tv=79 tote=309 clear{34540 0 67}
tv=80 tote=309 clear{34865 0 67}
tv=81 tote=310 clear{35190 0 67}
tv=82 tote=308 clear{35515 0 67}
tv=83 tote=310 clear{35840 0 67}
tv=84 tote=309 clear{36165 0 67}
tv=85 tote=310 clear{36490 0 67}
tv=86 tote=307 clear{36815 0 67}
tv=87 tote=293 clear{36922 0 66} clear{37140 0 52}
tv=88 tote=309 clear{37450 0 67}
tv=89 tote=309 clear{37775 0 67}
tv=90 tote=309 clear{38100 0 67}
tv=91 tote=309 clear{38425 0 67}
tv=92 tote=308 clear{38750 0 67}
tv=93 tote=308 clear{39075 0 67}
tv=94 tote=309 clear{39400 0 67}
tv=95 tote=309 clear{39725 0 67}
tv=96 tote=309 clear{40050 0 67}
tv=97 tote=310 clear{40375 0 67}
tv=98 tote=309 clear{40700 0 67}
tv=99 tote=307 clear{41025 0 67}
tv=100 tote=311 clear{41350 0 67}
tv=101 tote=307 clear{41675 0 67}
tv=102 tote=307 clear{42000 0 67}
tv=103 tote=309 clear{42325 0 67}
tv=104 tote=307 clear{42650 0 67}
tv=105 tote=311 clear{42975 0 67}
tv=106 tote=310 clear{43300 0 67}
tv=107 tote=309 clear{43625 0 67}
tv=108 tote=307 clear{43950 0 67}
tv=109 tote=311 clear{44275 0 67}
tv=110 tote=309 clear{44600 0 67}
tv=111 tote=310 clear{44925 0 67}
tv=112 tote=309 clear{45250 0 67}
tv=113 tote=309 clear{45575 0 67}
tv=114 tote=308 clear{45900 0 67}
tv=115 tote=309 clear{46225 0 67}
tv=116 tote=309 clear{46550 0 67}
tv=117 tote=309 clear{46875 0 67}
tv=118 tote=310 clear{47200 0 67}
tv=119 tote=309 clear{47525 0 67}
tv=120 tote=308 clear{47850 0 67}
tv=121 tote=308 clear{48175 0 67}
tv=122 tote=309 clear{48500 0 67}
tv=123 tote=310 clear{48825 0 67}
tv=124 tote=310 clear{49150 0 67}
tv=125 tote=308 clear{49475 0 67}
tv=126 tote=309 clear{49800 0 67}
tv=127 tote=308 clear{50125 0 67}
tv=128 tote=310 clear{50450 0 67}
tv=129 tote=309 clear{50775 0 67}
tv=130 tote=309 clear{51100 0 67}
tv=131 tote=309 clear{51425 0 67}
tv=132 tote=309 clear{51750 0 67}
tv=133 tote=309 clear{52075 0 67}
tv=134 tote=308 clear{52400 0 67}
tv=135 tote=308 clear{52725 0 67}
tv=136 tote=309 clear{53050 0 67}
tv=137 tote=308 clear{53375 0 67}
tv=138 tote=309 clear{53700 0 67}
tv=139 tote=308 clear{54025 0 67}
tv=140 tote=308 clear{54350 0 67}
tv=141 tote=308 clear{54675 0 67}
tv=142 tote=309 clear{55000 0 67}
tv=143 tote=309 clear{55325 0 67}
tv=144 tote=310 clear{55650 0 67}
tv=145 tote=309 clear{55975 0 67}
tv=146 tote=308 clear{56300 0 67}
tv=147 tote=310 clear{56625 0 67}
tv=148 tote=308 clear{56950 0 67}
tv=149 tote=309 clear{57275 0 67}
tv=150 tote=310 clear{57600 0 67}
tv=151 tote=311 clear{57925 0 67}
tv=152 tote=309 clear{58250 0 67}
tv=153 tote=310 clear{58575 0 67}
tv=154 tote=310 clear{58900 0 67}
tv=155 tote=309 clear{59225 0 67}
tv=156 tote=308 clear{59550 0 67}
tv=157 tote=310 clear{59875 0 67}
tv=158 tote=307 clear{60200 0 67}
tv=159 tote=307 clear{60525 0 67}
tv=160 tote=310 clear{60850 0 67}
tv=161 tote=311 clear{61175 0 67}
tv=162 tote=309 clear{61500 0 67}
tv=163 tote=309 clear{61825 0 67}
tv=164 tote=310 clear{62150 0 67}
tv=165 tote=309 clear{62475 0 67}
tv=166 tote=307 clear{62800 0 67}
tv=167 tote=309 clear{63125 0 67}
tv=168 tote=310 clear{63450 0 67}
tv=169 tote=310 clear{63775 0 67}
tv=170 tote=309 clear{64100 0 67}
tv=171 tote=307 clear{64425 0 67}
tv=172 tote=310 clear{64750 0 67}
tv=173 tote=308 clear{65075 0 67}
tv=174 tote=309 clear{65400 0 67}
tv=175 tote=308 clear{65725 0 67}
tv=176 tote=309 clear{66050 0 67}
tv=177 tote=309 clear{66375 0 67}
tv=178 tote=307 clear{66700 0 67}
tv=179 tote=311 clear{67025 0 67}
tv=180 tote=309 clear{67350 0 67}
tv=181 tote=309 clear{67675 0 67}
tv=182 tote=309 clear{68000 0 67}
tv=183 tote=310 clear{68325 0 67}
tv=184 tote=309 clear{68650 0 67}
tv=185 tote=308 clear{68975 0 67}
tv=186 tote=308 clear{69300 0 67}
tv=187 tote=310 clear{69625 0 67}
tv=188 tote=308 clear{69950 0 67}
tv=189 tote=310 clear{70275 0 67}
tv=190 tote=306 clear{70600 0 67}
tv=191 tote=310 clear{70925 0 67}
tv=192 tote=309 clear{71250 0 67}
tv=193 tote=307 clear{71575 0 67}
tv=194 tote=308 clear{71900 0 67}
tv=195 tote=309 clear{72225 0 67}
tv=196 tote=309 clear{72550 0 67}
tv=197 tote=309 clear{72875 0 67}
tv=198 tote=311 clear{73200 0 67}
tv=199 tote=309 clear{73525 0 67}
tv=200 tote=309 clear{73850 0 67}
tv=201 tote=309 clear{74175 0 67}
tv=202 tote=311 clear{74500 0 67}
tv=203 tote=309 clear{74825 0 67}
tv=204 tote=309 clear{75150 0 67}
tv=205 tote=308 clear{75475 0 67}
tv=206 tote=308 clear{75800 0 67}
tv=207 tote=308 clear{76125 0 67}
tv=208 tote=307 clear{76450 0 67}
tv=209 tote=311 clear{76775 0 67}
tv=210 tote=309 clear{77100 0 67}
tv=211 tote=306 clear{77425 0 67}
tv=212 tote=308 clear{77750 0 67}
tv=213 tote=310 clear{78075 0 67}
tv=214 tote=309 clear{78400 0 67}
tv=215 tote=308 clear{78725 0 67}
tv=216 tote=309 clear{79050 0 67}
tv=217 tote=308 clear{79375 0 67}
tv=218 tote=309 clear{79700 0 67}
tv=219 tote=309 clear{80025 0 67}
tv=220 tote=309 clear{80350 0 67}
tv=221 tote=309 clear{80675 0 67}
tv=222 tote=309 clear{81000 0 67}
tv=223 tote=310 clear{81325 0 67}
tv=224 tote=308 clear{81650 0 67}
tv=225 tote=310 clear{81975 0 67}
tv=226 tote=308 clear{82300 0 67}
tv=227 tote=307 clear{82625 0 67}
tv=228 tote=310 clear{82950 0 67}
tv=229 tote=308 clear{83275 0 67}
tv=230 tote=306 clear{83600 0 67}
tv=231 tote=308 clear{83925 0 67}
tv=232 tote=308 clear{84250 0 67}
tv=233 tote=307 clear{84575 0 67}
tv=234 tote=309 clear{84900 0 67}
tv=235 tote=309 clear{85225 0 67}
tv=236 tote=309 clear{85550 0 67}
tv=237 tote=310 clear{85875 0 67}
tv=238 tote=309 clear{86200 0 67}
tv=239 tote=309 clear{86525 0 67}
tv=240 tote=310 clear{86850 0 67}
tv=241 tote=310 clear{87175 0 67}
tv=242 tote=308 clear{87500 0 67}
tv=243 tote=309 clear{87825 0 67}
tv=244 tote=309 clear{88150 0 67}
tv=245 tote=311 clear{88475 0 67}
tv=246 tote=309 clear{88800 0 67}
tv=247 tote=311 clear{89125 0 67}
tv=248 tote=309 clear{89450 0 67}
tv=249 tote=309 clear{89775 0 67}
tv=250 tote=309 clear{90100 0 67}
tv=251 tote=309 clear{90425 0 67}
tv=252 tote=310 clear{90750 0 67}
tv=253 tote=308 clear{91075 0 67}
tv=254 tote=308 clear{91400 0 67}
tv=255 tote=308 clear{91725 0 67}
leaked='W' end-cycle=91808
pmu[35]=91808
pmu[36]=3080
pmu[7]=11201
pmu[3]=0
pmu[4]=18271
pmu[6]=2810
pmu[8]=87885
pmu[9]=21281
pmu[14]=88164
pmu[13]=20161
pmu[32]=8553
pmu[33]=18271
pmu[12]=15180
pmu[24]=2
pmu[26]=896
pmu[16]=8680
pmu[20]=2521
pmu[1]=281
pmu[27]=0
pmu[34]=64835
pmu[21]=1408
`

const goldenRSBRyzen = `warmup-end-cycle=8622
tv=0 tote=309 clear{8865 0 67}
tv=1 tote=309 clear{9190 0 67}
tv=2 tote=310 clear{9515 0 67}
tv=3 tote=308 clear{9840 0 67}
tv=4 tote=310 clear{10165 0 67}
tv=5 tote=310 clear{10490 0 67}
tv=6 tote=310 clear{10815 0 67}
tv=7 tote=308 clear{11140 0 67}
tv=8 tote=310 clear{11465 0 67}
tv=9 tote=308 clear{11790 0 67}
tv=10 tote=310 clear{12115 0 67}
tv=11 tote=309 clear{12440 0 67}
tv=12 tote=310 clear{12765 0 67}
tv=13 tote=310 clear{13090 0 67}
tv=14 tote=310 clear{13415 0 67}
tv=15 tote=310 clear{13740 0 67}
tv=16 tote=309 clear{14065 0 67}
tv=17 tote=308 clear{14390 0 67}
tv=18 tote=309 clear{14715 0 67}
tv=19 tote=309 clear{15040 0 67}
tv=20 tote=309 clear{15365 0 67}
tv=21 tote=309 clear{15690 0 67}
tv=22 tote=309 clear{16015 0 67}
tv=23 tote=309 clear{16340 0 67}
tv=24 tote=308 clear{16665 0 67}
tv=25 tote=310 clear{16990 0 67}
tv=26 tote=308 clear{17315 0 67}
tv=27 tote=308 clear{17640 0 67}
tv=28 tote=309 clear{17965 0 67}
tv=29 tote=307 clear{18290 0 67}
tv=30 tote=309 clear{18615 0 67}
tv=31 tote=308 clear{18940 0 67}
tv=32 tote=309 clear{19265 0 67}
tv=33 tote=309 clear{19590 0 67}
tv=34 tote=307 clear{19915 0 67}
tv=35 tote=310 clear{20240 0 67}
tv=36 tote=309 clear{20565 0 67}
tv=37 tote=308 clear{20890 0 67}
tv=38 tote=309 clear{21215 0 67}
tv=39 tote=310 clear{21540 0 67}
tv=40 tote=309 clear{21865 0 67}
tv=41 tote=308 clear{22190 0 67}
tv=42 tote=311 clear{22515 0 67}
tv=43 tote=309 clear{22840 0 67}
tv=44 tote=309 clear{23165 0 67}
tv=45 tote=309 clear{23490 0 67}
tv=46 tote=309 clear{23815 0 67}
tv=47 tote=308 clear{24140 0 67}
tv=48 tote=310 clear{24465 0 67}
tv=49 tote=307 clear{24790 0 67}
tv=50 tote=309 clear{25115 0 67}
tv=51 tote=310 clear{25440 0 67}
tv=52 tote=310 clear{25765 0 67}
tv=53 tote=309 clear{26090 0 67}
tv=54 tote=308 clear{26415 0 67}
tv=55 tote=309 clear{26740 0 67}
tv=56 tote=309 clear{27065 0 67}
tv=57 tote=309 clear{27390 0 67}
tv=58 tote=309 clear{27715 0 67}
tv=59 tote=309 clear{28040 0 67}
tv=60 tote=310 clear{28365 0 67}
tv=61 tote=309 clear{28690 0 67}
tv=62 tote=308 clear{29015 0 67}
tv=63 tote=308 clear{29340 0 67}
tv=64 tote=307 clear{29665 0 67}
tv=65 tote=309 clear{29990 0 67}
tv=66 tote=310 clear{30315 0 67}
tv=67 tote=308 clear{30640 0 67}
tv=68 tote=310 clear{30965 0 67}
tv=69 tote=310 clear{31290 0 67}
tv=70 tote=310 clear{31615 0 67}
tv=71 tote=309 clear{31940 0 67}
tv=72 tote=307 clear{32265 0 67}
tv=73 tote=306 clear{32590 0 67}
tv=74 tote=309 clear{32915 0 67}
tv=75 tote=309 clear{33240 0 67}
tv=76 tote=309 clear{33565 0 67}
tv=77 tote=308 clear{33890 0 67}
tv=78 tote=309 clear{34215 0 67}
tv=79 tote=309 clear{34540 0 67}
tv=80 tote=309 clear{34865 0 67}
tv=81 tote=310 clear{35190 0 67}
tv=82 tote=308 clear{35515 0 67}
tv=83 tote=310 clear{35840 0 67}
tv=84 tote=309 clear{36165 0 67}
tv=85 tote=310 clear{36490 0 67}
tv=86 tote=307 clear{36815 0 67}
tv=87 tote=293 clear{36922 0 66} clear{37140 0 52}
tv=88 tote=309 clear{37450 0 67}
tv=89 tote=309 clear{37775 0 67}
tv=90 tote=309 clear{38100 0 67}
tv=91 tote=309 clear{38425 0 67}
tv=92 tote=308 clear{38750 0 67}
tv=93 tote=308 clear{39075 0 67}
tv=94 tote=309 clear{39400 0 67}
tv=95 tote=309 clear{39725 0 67}
tv=96 tote=309 clear{40050 0 67}
tv=97 tote=310 clear{40375 0 67}
tv=98 tote=309 clear{40700 0 67}
tv=99 tote=307 clear{41025 0 67}
tv=100 tote=311 clear{41350 0 67}
tv=101 tote=307 clear{41675 0 67}
tv=102 tote=307 clear{42000 0 67}
tv=103 tote=309 clear{42325 0 67}
tv=104 tote=307 clear{42650 0 67}
tv=105 tote=311 clear{42975 0 67}
tv=106 tote=310 clear{43300 0 67}
tv=107 tote=309 clear{43625 0 67}
tv=108 tote=307 clear{43950 0 67}
tv=109 tote=311 clear{44275 0 67}
tv=110 tote=309 clear{44600 0 67}
tv=111 tote=310 clear{44925 0 67}
tv=112 tote=309 clear{45250 0 67}
tv=113 tote=309 clear{45575 0 67}
tv=114 tote=308 clear{45900 0 67}
tv=115 tote=309 clear{46225 0 67}
tv=116 tote=309 clear{46550 0 67}
tv=117 tote=309 clear{46875 0 67}
tv=118 tote=310 clear{47200 0 67}
tv=119 tote=309 clear{47525 0 67}
tv=120 tote=308 clear{47850 0 67}
tv=121 tote=308 clear{48175 0 67}
tv=122 tote=309 clear{48500 0 67}
tv=123 tote=310 clear{48825 0 67}
tv=124 tote=310 clear{49150 0 67}
tv=125 tote=308 clear{49475 0 67}
tv=126 tote=309 clear{49800 0 67}
tv=127 tote=308 clear{50125 0 67}
tv=128 tote=310 clear{50450 0 67}
tv=129 tote=309 clear{50775 0 67}
tv=130 tote=309 clear{51100 0 67}
tv=131 tote=309 clear{51425 0 67}
tv=132 tote=309 clear{51750 0 67}
tv=133 tote=309 clear{52075 0 67}
tv=134 tote=308 clear{52400 0 67}
tv=135 tote=308 clear{52725 0 67}
tv=136 tote=309 clear{53050 0 67}
tv=137 tote=308 clear{53375 0 67}
tv=138 tote=309 clear{53700 0 67}
tv=139 tote=308 clear{54025 0 67}
tv=140 tote=308 clear{54350 0 67}
tv=141 tote=308 clear{54675 0 67}
tv=142 tote=309 clear{55000 0 67}
tv=143 tote=309 clear{55325 0 67}
tv=144 tote=310 clear{55650 0 67}
tv=145 tote=309 clear{55975 0 67}
tv=146 tote=308 clear{56300 0 67}
tv=147 tote=310 clear{56625 0 67}
tv=148 tote=308 clear{56950 0 67}
tv=149 tote=309 clear{57275 0 67}
tv=150 tote=310 clear{57600 0 67}
tv=151 tote=311 clear{57925 0 67}
tv=152 tote=309 clear{58250 0 67}
tv=153 tote=310 clear{58575 0 67}
tv=154 tote=310 clear{58900 0 67}
tv=155 tote=309 clear{59225 0 67}
tv=156 tote=308 clear{59550 0 67}
tv=157 tote=310 clear{59875 0 67}
tv=158 tote=307 clear{60200 0 67}
tv=159 tote=307 clear{60525 0 67}
tv=160 tote=310 clear{60850 0 67}
tv=161 tote=311 clear{61175 0 67}
tv=162 tote=309 clear{61500 0 67}
tv=163 tote=309 clear{61825 0 67}
tv=164 tote=310 clear{62150 0 67}
tv=165 tote=309 clear{62475 0 67}
tv=166 tote=307 clear{62800 0 67}
tv=167 tote=309 clear{63125 0 67}
tv=168 tote=310 clear{63450 0 67}
tv=169 tote=310 clear{63775 0 67}
tv=170 tote=309 clear{64100 0 67}
tv=171 tote=307 clear{64425 0 67}
tv=172 tote=310 clear{64750 0 67}
tv=173 tote=308 clear{65075 0 67}
tv=174 tote=309 clear{65400 0 67}
tv=175 tote=308 clear{65725 0 67}
tv=176 tote=309 clear{66050 0 67}
tv=177 tote=309 clear{66375 0 67}
tv=178 tote=307 clear{66700 0 67}
tv=179 tote=311 clear{67025 0 67}
tv=180 tote=309 clear{67350 0 67}
tv=181 tote=309 clear{67675 0 67}
tv=182 tote=309 clear{68000 0 67}
tv=183 tote=310 clear{68325 0 67}
tv=184 tote=309 clear{68650 0 67}
tv=185 tote=308 clear{68975 0 67}
tv=186 tote=308 clear{69300 0 67}
tv=187 tote=310 clear{69625 0 67}
tv=188 tote=308 clear{69950 0 67}
tv=189 tote=310 clear{70275 0 67}
tv=190 tote=306 clear{70600 0 67}
tv=191 tote=310 clear{70925 0 67}
tv=192 tote=309 clear{71250 0 67}
tv=193 tote=307 clear{71575 0 67}
tv=194 tote=308 clear{71900 0 67}
tv=195 tote=309 clear{72225 0 67}
tv=196 tote=309 clear{72550 0 67}
tv=197 tote=309 clear{72875 0 67}
tv=198 tote=311 clear{73200 0 67}
tv=199 tote=309 clear{73525 0 67}
tv=200 tote=309 clear{73850 0 67}
tv=201 tote=309 clear{74175 0 67}
tv=202 tote=311 clear{74500 0 67}
tv=203 tote=309 clear{74825 0 67}
tv=204 tote=309 clear{75150 0 67}
tv=205 tote=308 clear{75475 0 67}
tv=206 tote=308 clear{75800 0 67}
tv=207 tote=308 clear{76125 0 67}
tv=208 tote=307 clear{76450 0 67}
tv=209 tote=311 clear{76775 0 67}
tv=210 tote=309 clear{77100 0 67}
tv=211 tote=306 clear{77425 0 67}
tv=212 tote=308 clear{77750 0 67}
tv=213 tote=310 clear{78075 0 67}
tv=214 tote=309 clear{78400 0 67}
tv=215 tote=308 clear{78725 0 67}
tv=216 tote=309 clear{79050 0 67}
tv=217 tote=308 clear{79375 0 67}
tv=218 tote=309 clear{79700 0 67}
tv=219 tote=309 clear{80025 0 67}
tv=220 tote=309 clear{80350 0 67}
tv=221 tote=309 clear{80675 0 67}
tv=222 tote=309 clear{81000 0 67}
tv=223 tote=310 clear{81325 0 67}
tv=224 tote=308 clear{81650 0 67}
tv=225 tote=310 clear{81975 0 67}
tv=226 tote=308 clear{82300 0 67}
tv=227 tote=307 clear{82625 0 67}
tv=228 tote=310 clear{82950 0 67}
tv=229 tote=308 clear{83275 0 67}
tv=230 tote=306 clear{83600 0 67}
tv=231 tote=308 clear{83925 0 67}
tv=232 tote=308 clear{84250 0 67}
tv=233 tote=307 clear{84575 0 67}
tv=234 tote=309 clear{84900 0 67}
tv=235 tote=309 clear{85225 0 67}
tv=236 tote=309 clear{85550 0 67}
tv=237 tote=310 clear{85875 0 67}
tv=238 tote=309 clear{86200 0 67}
tv=239 tote=309 clear{86525 0 67}
tv=240 tote=310 clear{86850 0 67}
tv=241 tote=310 clear{87175 0 67}
tv=242 tote=308 clear{87500 0 67}
tv=243 tote=309 clear{87825 0 67}
tv=244 tote=309 clear{88150 0 67}
tv=245 tote=311 clear{88475 0 67}
tv=246 tote=309 clear{88800 0 67}
tv=247 tote=311 clear{89125 0 67}
tv=248 tote=309 clear{89450 0 67}
tv=249 tote=309 clear{89775 0 67}
tv=250 tote=309 clear{90100 0 67}
tv=251 tote=309 clear{90425 0 67}
tv=252 tote=310 clear{90750 0 67}
tv=253 tote=308 clear{91075 0 67}
tv=254 tote=308 clear{91400 0 67}
tv=255 tote=308 clear{91725 0 67}
leaked='W' end-cycle=91808
pmu[35]=91808
pmu[36]=3080
pmu[7]=11201
pmu[3]=0
pmu[4]=18271
pmu[6]=2810
pmu[8]=88723
pmu[9]=21281
pmu[14]=88163
pmu[13]=20161
pmu[32]=8554
pmu[33]=18271
pmu[12]=15180
pmu[24]=2
pmu[26]=896
pmu[16]=8680
pmu[20]=2521
pmu[1]=281
pmu[27]=0
pmu[34]=64835
pmu[21]=1408
`

const goldenTable2 = `be0775359176638664ecc9f713a374a6bf2c9117a310bcca46166a3a1a151d5b
`
