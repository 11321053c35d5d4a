package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/baseline"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/defense"
	"whisper/internal/kernel"
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
// seed, so the cells are independent and collected in matrix order.
func Mitigations(ex Exec, seed int64) ([]MitigationRow, error) {
	// row leaks mitSecret with spec under defense def and records whether
	// the attack still recovers it.
	row := func(def, attack, note string, spec leakSpec) func(*kernel.Kernel) (MitigationRow, error) {
		return func(k *kernel.Kernel) (MitigationRow, error) {
			res, err := leak(k, spec)
			if err != nil {
				return MitigationRow{}, err
			}
			er := stats.ByteErrorRate(res.Data, mitSecret)
			return MitigationRow{
				Defense: def, Attack: attack, Works: er <= successThreshold,
				ErrRate: er, Note: note,
			}, nil
		}
	}
	md := func(def, note string) func(*kernel.Kernel) (MitigationRow, error) {
		return row(def, "TET-MD", note, leakSpec{family: "md", secret: mitSecret, batches: 3})
	}
	frmd := func(def, note string) func(*kernel.Kernel) (MitigationRow, error) {
		return row(def, "Meltdown-F+R", note, leakSpec{family: "md-fr", secret: mitSecret})
	}
	zbl := func(def, note string) func(*kernel.Kernel) (MitigationRow, error) {
		return row(def, "TET-ZBL", note, leakSpec{family: "zbl", secret: mitSecret, batches: 3})
	}

	vulnerable := cpu.I7_7700()
	invisiSpec := cpu.I7_7700()
	invisiSpec.Pipe.InvisibleSpeculation = true
	return runCells(ex, "mitigations", seed, []cell[MitigationRow]{
		// §6.1: cache-centric defenses vs the two Meltdown variants.
		{key: "none/md", model: vulnerable, cfg: kernel.Config{KASLR: true}, seed: seed, run: md("none", "")},
		{key: "none/fr-md", model: vulnerable, cfg: kernel.Config{KASLR: true}, seed: seed, run: frmd("none", "")},
		{key: "invisispec/md", model: invisiSpec, cfg: kernel.Config{KASLR: true}, seed: seed,
			run: md("InvisiSpec", "timing channel unaffected by invisible speculation (§6.1)")},
		{key: "invisispec/fr-md", model: invisiSpec, cfg: kernel.Config{KASLR: true}, seed: seed,
			run: frmd("InvisiSpec", "cache covert channel destroyed: transient fills suppressed")},
		// §6.2: software mitigations.
		{key: "kpti/md", model: vulnerable, cfg: kernel.Config{KASLR: true, KPTI: true}, seed: seed,
			run: md("KPTI", "secret unmapped in user tables: nothing to forward")},
		{key: "none/zbl", model: vulnerable, cfg: kernel.Config{KASLR: true}, seed: seed, run: zbl("none", "")},
		{key: "verw/zbl", model: vulnerable, cfg: kernel.Config{KASLR: true, VERW: true}, seed: seed,
			run: zbl("VERW scrub", "fill buffers scrubbed on context switch: stale data gone")},
		// Microcode fix (the Table 2 patched parts).
		{key: "ucode/md", model: cpu.I9_10980XE(), cfg: kernel.Config{KASLR: true}, seed: seed,
			run: md("microcode fix", "faulting loads forward zeros")},
	})
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
	kaby, cfg := cpu.I7_7700(), kernel.Config{KASLR: true}
	return runCells(ex, "stealth", seed, []cell[StealthRow]{
		// TET-MD under the detector.
		{key: "tet-md", model: kaby, cfg: cfg, seed: seed, run: func(k *kernel.Kernel) (StealthRow, error) {
			k.WriteSecret(mitSecret)
			md, err := core.NewTETMeltdown(k)
			if err != nil {
				return StealthRow{}, err
			}
			md.Batches = 3
			return underDetector(k, "TET-MD", md.LeakByte)
		}},
		// Meltdown-F+R under the detector.
		{key: "meltdown-fr", model: kaby, cfg: cfg, seed: seed, run: func(k *kernel.Kernel) (StealthRow, error) {
			k.WriteSecret(mitSecret)
			fr, err := baseline.NewMeltdownFR(k)
			if err != nil {
				return StealthRow{}, err
			}
			return underDetector(k, "Meltdown-F+R", fr.LeakByte)
		}},
	})
}

// underDetector leaks the planted mitSecret through leakByte, a built
// attack, under an HPC cache-attack detector armed now (it snapshots the
// PMU when built, so after the attack's own set-up) and sampled after every
// byte.
func underDetector(k *kernel.Kernel, attack string, leakByte func(va uint64) (byte, error)) (StealthRow, error) {
	det := defense.NewCacheAnomalyDetector(k.Machine().PMU)
	_, err := core.LeakBytes(k.Machine(), attack, len(mitSecret), func(i int) (byte, error) {
		b, err := leakByte(k.SecretVA() + uint64(i))
		if err == nil {
			det.Sample()
		}
		return b, err
	})
	if err != nil {
		return StealthRow{}, err
	}
	return StealthRow{Attack: attack, AlarmRate: det.AlarmRate(), Detected: det.AlarmRate() > 0.5}, nil
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
