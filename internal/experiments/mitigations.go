package experiments

import (
	"context"
	"fmt"
	"strings"

	"whisper/internal/baseline"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/defense"
	"whisper/internal/kernel"
	"whisper/internal/sched"
	"whisper/internal/stats"
)

// MitigationRow is one (defense, attack) cell of the §6 security discussion.
type MitigationRow struct {
	Defense string
	Attack  string
	Works   bool // attack still leaks under the defense
	ErrRate float64
	Note    string
}

// mitSecret is the planted victim secret for the mitigation matrix.
var mitSecret = []byte("MITI")

// Mitigations reproduces the §6 defense discussion as a matrix: which
// defenses stop which attacks. The paper's claims, in order: cache-centric
// defenses (InvisiSpec-style invisible speculation) stop Flush+Reload
// attacks but not TET (§6.1); KPTI and VERW-style buffer scrubbing stop
// TET-MD and TET-ZBL respectively (§6.2); the microcode fix stops both
// (Table 2's patched parts). Every cell boots its own machine from the same
// seed, so the cells are independent scheduler jobs collected in matrix
// order.
func Mitigations(ex Exec, seed int64) ([]MitigationRow, error) {
	runMD := func(defName string, model cpu.Model, cfg kernel.Config, note string) (MitigationRow, error) {
		k, err := boot(model, cfg, seed)
		if err != nil {
			return MitigationRow{}, err
		}
		defer recycle(k)
		k.WriteSecret(mitSecret)
		md, err := core.NewTETMeltdown(k)
		if err != nil {
			return MitigationRow{}, err
		}
		md.Batches = 3
		res, err := md.Leak(k.SecretVA(), len(mitSecret))
		if err != nil {
			return MitigationRow{}, err
		}
		er := stats.ByteErrorRate(res.Data, mitSecret)
		return MitigationRow{
			Defense: defName, Attack: "TET-MD", Works: er <= successThreshold,
			ErrRate: er, Note: note,
		}, nil
	}
	runFRMD := func(defName string, model cpu.Model, cfg kernel.Config, note string) (MitigationRow, error) {
		k, err := boot(model, cfg, seed)
		if err != nil {
			return MitigationRow{}, err
		}
		defer recycle(k)
		k.WriteSecret(mitSecret)
		fr, err := baseline.NewMeltdownFR(k)
		if err != nil {
			return MitigationRow{}, err
		}
		res, err := fr.Leak(k.SecretVA(), len(mitSecret))
		if err != nil {
			return MitigationRow{}, err
		}
		er := stats.ByteErrorRate(res.Data, mitSecret)
		return MitigationRow{
			Defense: defName, Attack: "Meltdown-F+R", Works: er <= successThreshold,
			ErrRate: er, Note: note,
		}, nil
	}
	runZBL := func(defName string, cfg kernel.Config, note string) (MitigationRow, error) {
		k, err := boot(cpu.I7_7700(), cfg, seed)
		if err != nil {
			return MitigationRow{}, err
		}
		defer recycle(k)
		k.WriteSecret(mitSecret)
		z, err := core.NewTETZombieload(k)
		if err != nil {
			return MitigationRow{}, err
		}
		z.Batches = 3
		res, err := z.Leak(len(mitSecret))
		if err != nil {
			return MitigationRow{}, err
		}
		er := stats.ByteErrorRate(res.Data, mitSecret)
		return MitigationRow{
			Defense: defName, Attack: "TET-ZBL", Works: er <= successThreshold,
			ErrRate: er, Note: note,
		}, nil
	}

	vulnerable := cpu.I7_7700()
	invisiSpec := cpu.I7_7700()
	invisiSpec.Pipe.InvisibleSpeculation = true

	md := func(defName string, model cpu.Model, cfg kernel.Config, note string) func(context.Context, int64) (MitigationRow, error) {
		return func(context.Context, int64) (MitigationRow, error) {
			return runMD(defName, model, cfg, note)
		}
	}
	frmd := func(defName string, model cpu.Model, cfg kernel.Config, note string) func(context.Context, int64) (MitigationRow, error) {
		return func(context.Context, int64) (MitigationRow, error) {
			return runFRMD(defName, model, cfg, note)
		}
	}
	zbl := func(defName string, cfg kernel.Config, note string) func(context.Context, int64) (MitigationRow, error) {
		return func(context.Context, int64) (MitigationRow, error) {
			return runZBL(defName, cfg, note)
		}
	}
	jobs := []sched.Job[MitigationRow]{
		// §6.1: cache-centric defenses vs the two Meltdown variants.
		{Key: "none/md", Run: md("none", vulnerable, kernel.Config{KASLR: true}, "")},
		{Key: "none/fr-md", Run: frmd("none", vulnerable, kernel.Config{KASLR: true}, "")},
		{Key: "invisispec/md", Run: md("InvisiSpec", invisiSpec, kernel.Config{KASLR: true},
			"timing channel unaffected by invisible speculation (§6.1)")},
		{Key: "invisispec/fr-md", Run: frmd("InvisiSpec", invisiSpec, kernel.Config{KASLR: true},
			"cache covert channel destroyed: transient fills suppressed")},
		// §6.2: software mitigations.
		{Key: "kpti/md", Run: md("KPTI", vulnerable, kernel.Config{KASLR: true, KPTI: true},
			"secret unmapped in user tables: nothing to forward")},
		{Key: "none/zbl", Run: zbl("none", kernel.Config{KASLR: true}, "")},
		{Key: "verw/zbl", Run: zbl("VERW scrub", kernel.Config{KASLR: true, VERW: true},
			"fill buffers scrubbed on context switch: stale data gone")},
		// Microcode fix (the Table 2 patched parts).
		{Key: "ucode/md", Run: md("microcode fix", cpu.I9_10980XE(), kernel.Config{KASLR: true},
			"faulting loads forward zeros")},
	}
	return sched.Map(ex.ctx(), ex.opts("mitigations", seed), jobs)
}

// PaperMitigations is the expected outcome per the paper's §6 discussion.
var PaperMitigations = map[string]bool{
	"none/TET-MD":             true,
	"none/Meltdown-F+R":       true,
	"InvisiSpec/TET-MD":       true,  // §6.1: TET bypasses cache defenses
	"InvisiSpec/Meltdown-F+R": false, // cache channel gone
	"KPTI/TET-MD":             false, // §6.2
	"none/TET-ZBL":            true,
	"VERW scrub/TET-ZBL":      false, // §6.2 microcode/buffer scrub
	"microcode fix/TET-MD":    false, // Table 2
}

// MitigationsAgree reports whether the measured matrix matches §6.
func MitigationsAgree(rows []MitigationRow) (bool, []string) {
	var diffs []string
	for _, r := range rows {
		key := r.Defense + "/" + r.Attack
		want, known := PaperMitigations[key]
		if !known {
			continue
		}
		if r.Works != want {
			diffs = append(diffs, fmt.Sprintf("%s: measured works=%v, paper %v", key, r.Works, want))
		}
	}
	return len(diffs) == 0, diffs
}

// RenderMitigations formats the §6 matrix.
func RenderMitigations(rows []MitigationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§6 mitigation matrix (works = attack still leaks under the defense)")
	fmt.Fprintf(&b, "%-16s %-16s %6s %8s  %s\n", "Defense", "Attack", "works", "err", "note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-16s %6s %7.1f%%  %s\n",
			r.Defense, r.Attack, check(r.Works), r.ErrRate*100, r.Note)
	}
	return b.String()
}

// StealthRow is one attack under the cache-anomaly detector.
type StealthRow struct {
	Attack    string
	AlarmRate float64
	Detected  bool
}

// Stealth reproduces the Table 1 / §3.3 stealth claim: an HPC-based
// Flush+Reload detector ([15]-style) flags the cache-probing Meltdown but
// stays silent on TET-MD, which retires essentially no missing loads. The
// two attacks run as independent scheduler cells on their own machines.
func Stealth(ex Exec, seed int64) ([]StealthRow, error) {
	jobs := []sched.Job[StealthRow]{
		// TET-MD under the detector.
		{Key: "tet-md", Run: func(context.Context, int64) (StealthRow, error) {
			k, err := boot(cpu.I7_7700(), kernel.Config{KASLR: true}, seed)
			if err != nil {
				return StealthRow{}, err
			}
			defer recycle(k)
			k.WriteSecret(mitSecret)
			md, err := core.NewTETMeltdown(k)
			if err != nil {
				return StealthRow{}, err
			}
			md.Batches = 3
			det := defense.NewCacheAnomalyDetector(k.Machine().PMU)
			for i := 0; i < len(mitSecret); i++ {
				if _, err := md.LeakByte(k.SecretVA() + uint64(i)); err != nil {
					return StealthRow{}, err
				}
				det.Sample()
			}
			return StealthRow{
				Attack:    "TET-MD",
				AlarmRate: det.AlarmRate(),
				Detected:  det.AlarmRate() > 0.5,
			}, nil
		}},
		// Meltdown-F+R under the detector.
		{Key: "meltdown-fr", Run: func(context.Context, int64) (StealthRow, error) {
			k, err := boot(cpu.I7_7700(), kernel.Config{KASLR: true}, seed)
			if err != nil {
				return StealthRow{}, err
			}
			defer recycle(k)
			k.WriteSecret(mitSecret)
			fr, err := baseline.NewMeltdownFR(k)
			if err != nil {
				return StealthRow{}, err
			}
			det := defense.NewCacheAnomalyDetector(k.Machine().PMU)
			for i := 0; i < len(mitSecret); i++ {
				if _, err := fr.LeakByte(k.SecretVA() + uint64(i)); err != nil {
					return StealthRow{}, err
				}
				det.Sample()
			}
			return StealthRow{
				Attack:    "Meltdown-F+R",
				AlarmRate: det.AlarmRate(),
				Detected:  det.AlarmRate() > 0.5,
			}, nil
		}},
	}
	return sched.Map(ex.ctx(), ex.opts("stealth", seed), jobs)
}

// RenderStealth formats the detector comparison.
func RenderStealth(rows []StealthRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Stealth vs an HPC cache-attack detector (Table 1 / §3.3)")
	fmt.Fprintf(&b, "%-16s %12s %10s\n", "Attack", "alarm-rate", "detected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %11.0f%% %10s\n", r.Attack, r.AlarmRate*100, check(r.Detected))
	}
	return b.String()
}
