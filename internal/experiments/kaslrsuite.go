package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
)

// KASLRRow is one configuration of the §4.5 evaluation.
type KASLRRow struct {
	Name         string
	CPU          string
	Found        bool
	Seconds      float64
	PaperSeconds float64 // 0 when the paper gives no number
	Note         string
}

// KASLRSuite runs the full §4.5 matrix: TET-KASLR plain/KPTI/FLARE/Docker,
// the cross-CPU rows, the secure-TLB and FGKASLR ablations, and the
// prefetch-timing baseline with and without FLARE. Every row boots its own
// machine from the same seed (as the original serial sweep did), so the rows
// are independent cells collected in matrix order.
func KASLRSuite(ex Exec, reps int, seed int64) ([]KASLRRow, error) {
	// row locates the kernel base with TET-KASLR, or with the
	// prefetch-timing baseline (the family FLARE was designed against).
	row := func(prefetch bool, name string, paperSec float64, note string) func(*kernel.Kernel) (KASLRRow, error) {
		return func(k *kernel.Kernel) (KASLRRow, error) {
			res, err := locate(k, reps, prefetch)
			if err != nil {
				return KASLRRow{}, err
			}
			return KASLRRow{
				Name:         name,
				CPU:          k.Machine().Model.Name,
				Found:        res.Slot == k.BaseSlot(),
				Seconds:      res.Seconds,
				PaperSeconds: paperSec,
				Note:         note,
			}, nil
		}
	}

	// §6.2 software mitigation: FGKASLR. The base is still found; the
	// code-reuse step (deriving a function from the base) breaks.
	fgkaslr := func(k *kernel.Kernel) (KASLRRow, error) {
		res, err := locate(k, reps, false)
		if err != nil {
			return KASLRRow{}, err
		}
		derived := res.Base + kernel.KernelFunctions["commit_creds"]
		actual, err := k.FunctionVA("commit_creds")
		if err != nil {
			return KASLRRow{}, err
		}
		note := "base found but derived commit_creds wrong (mitigation works)"
		if derived == actual {
			note = "MITIGATION FAILED: derived function address still valid"
		}
		return KASLRRow{
			Name:    "TET-KASLR vs FGKASLR",
			CPU:     k.Machine().Model.Name,
			Found:   res.Slot == k.BaseSlot() && derived != actual,
			Seconds: res.Seconds,
			Note:    note,
		}, nil
	}

	// §6.3 hardware mitigation ablation: an Intel part whose TLB only fills
	// when the permission check passes (secure TLB).
	secure := cpu.I9_10980XE()
	secure.Name = "i9-10980XE + secure TLB"
	secure.Pipe.TLBFillOnFault = false

	i9 := cpu.I9_10980XE()
	return runCells(ex, "kaslr", seed, []cell[KASLRRow]{
		{key: "tet/i9-10980xe", model: i9, cfg: kernel.Config{KASLR: true}, seed: seed,
			run: row(false, "TET-KASLR", 0.8829, "paper: 0.8829 s (n=3, sigma=0.0036)")},
		{key: "tet/i9-10980xe/kpti", model: i9, cfg: kernel.Config{KASLR: true, KPTI: true}, seed: seed,
			run: row(false, "TET-KASLR + KPTI", 1.0, "paper: trampoline found within 1 s")},
		{key: "tet/i9-10980xe/kpti+flare", model: i9, cfg: kernel.Config{KASLR: true, KPTI: true, FLARE: true}, seed: seed,
			run: row(false, "TET-KASLR + KPTI + FLARE", 0, "bypasses the state-of-the-art defense")},
		{key: "tet/i9-10980xe/flare", model: i9, cfg: kernel.Config{KASLR: true, FLARE: true}, seed: seed,
			run: row(false, "TET-KASLR + FLARE (no KPTI)", 0, "4K-partition eviction spares 2M image entries")},
		{key: "tet/i9-10980xe/docker", model: i9, cfg: kernel.Config{KASLR: true, KPTI: true, Docker: true}, seed: seed,
			run: row(false, "TET-KASLR in Docker", 0, "container namespaces do not help")},
		{key: "tet/i7-6700", model: cpu.I7_6700(), cfg: kernel.Config{KASLR: true}, seed: seed,
			run: row(false, "TET-KASLR", 0, "")},
		{key: "tet/i7-7700", model: cpu.I7_7700(), cfg: kernel.Config{KASLR: true}, seed: seed,
			run: row(false, "TET-KASLR", 0, "")},
		{key: "tet/ryzen-5600g", model: cpu.Ryzen5600G(), cfg: kernel.Config{KASLR: true}, seed: seed,
			run: row(false, "TET-KASLR", 0, "fails: Zen 3 does not fill the TLB on a faulting access")},
		{key: "tet/secure-tlb", model: secure, cfg: kernel.Config{KASLR: true}, seed: seed,
			run: row(false, "TET-KASLR vs secure TLB", 0, "fails: fill-on-fault removed (proposed hardware fix)")},
		{key: "tet/fgkaslr", model: i9, cfg: kernel.Config{KASLR: true, FGKASLR: true}, seed: seed, run: fgkaslr},
		{key: "prefetch/kpti", model: i9, cfg: kernel.Config{KASLR: true, KPTI: true}, seed: seed,
			run: row(true, "prefetch-KASLR (baseline)", 0, "")},
		{key: "prefetch/kpti+flare", model: i9, cfg: kernel.Config{KASLR: true, KPTI: true, FLARE: true}, seed: seed,
			run: row(true, "prefetch-KASLR + FLARE (baseline)", 0, "FLARE defeats prefetch probes; TET survives (§6.1)")},
	})
}

// RenderKASLRSuite formats the §4.5 matrix.
func RenderKASLRSuite(rows []KASLRRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§4.5 KASLR suite (found = attack recovered the true base)")
	fmt.Fprintf(&b, "%-34s %-26s %6s %9s %10s  %s\n",
		"Attack", "CPU", "found", "seconds", "paper s", "note")
	for _, r := range rows {
		paper := "-"
		if r.PaperSeconds > 0 {
			paper = fmt.Sprintf("%.4f", r.PaperSeconds)
		}
		fmt.Fprintf(&b, "%-34s %-26s %6s %9.4f %10s  %s\n",
			r.Name, r.CPU, check(r.Found), r.Seconds, paper, r.Note)
	}
	return b.String()
}
