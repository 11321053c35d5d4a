package experiments

import (
	"context"
	"fmt"
	"strings"

	"whisper/internal/baseline"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/sched"
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
// are independent scheduler cells collected in matrix order.
func KASLRSuite(ex Exec, reps int, seed int64) ([]KASLRRow, error) {
	runTET := func(name string, model cpu.Model, cfg kernel.Config, paperSec float64, note string) (KASLRRow, error) {
		k, err := boot(model, cfg, seed)
		if err != nil {
			return KASLRRow{}, err
		}
		defer recycle(k)
		a, err := core.NewTETKASLR(k)
		if err != nil {
			return KASLRRow{}, err
		}
		a.Reps = reps
		res, err := a.Locate()
		if err != nil {
			return KASLRRow{}, err
		}
		return KASLRRow{
			Name:         name,
			CPU:          model.Name,
			Found:        res.Slot == k.BaseSlot(),
			Seconds:      res.Seconds,
			PaperSeconds: paperSec,
			Note:         note,
		}, nil
	}

	// §6.2 software mitigation: FGKASLR. The base is still found; the
	// code-reuse step (deriving a function from the base) breaks.
	runFGKASLR := func() (KASLRRow, error) {
		k, err := boot(cpu.I9_10980XE(), kernel.Config{KASLR: true, FGKASLR: true}, seed)
		if err != nil {
			return KASLRRow{}, err
		}
		defer recycle(k)
		a, err := core.NewTETKASLR(k)
		if err != nil {
			return KASLRRow{}, err
		}
		a.Reps = reps
		res, err := a.Locate()
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

	// Prefetch-timing baseline (the family FLARE was designed against).
	runPrefetch := func(name string, cfg kernel.Config, wantDefeated bool) (KASLRRow, error) {
		k, err := boot(cpu.I9_10980XE(), cfg, seed)
		if err != nil {
			return KASLRRow{}, err
		}
		defer recycle(k)
		a, err := baseline.NewPrefetchKASLR(k)
		if err != nil {
			return KASLRRow{}, err
		}
		a.Reps = reps
		res, err := a.Locate()
		if err != nil {
			return KASLRRow{}, err
		}
		note := ""
		if wantDefeated {
			note = "FLARE defeats prefetch probes; TET survives (§6.1)"
		}
		return KASLRRow{
			Name:    name,
			CPU:     k.Machine().Model.Name,
			Found:   res.Slot == k.BaseSlot(),
			Seconds: res.Seconds,
			Note:    note,
		}, nil
	}

	// §6.3 hardware mitigation ablation: an Intel part whose TLB only fills
	// when the permission check passes (secure TLB).
	secure := cpu.I9_10980XE()
	secure.Name = "i9-10980XE + secure TLB"
	secure.Pipe.TLBFillOnFault = false

	tet := func(name string, model cpu.Model, cfg kernel.Config, paperSec float64, note string) func(context.Context, int64) (KASLRRow, error) {
		return func(context.Context, int64) (KASLRRow, error) {
			return runTET(name, model, cfg, paperSec, note)
		}
	}
	jobs := []sched.Job[KASLRRow]{
		{Key: "tet/i9-10980xe", Run: tet("TET-KASLR", cpu.I9_10980XE(),
			kernel.Config{KASLR: true}, 0.8829, "paper: 0.8829 s (n=3, sigma=0.0036)")},
		{Key: "tet/i9-10980xe/kpti", Run: tet("TET-KASLR + KPTI", cpu.I9_10980XE(),
			kernel.Config{KASLR: true, KPTI: true}, 1.0, "paper: trampoline found within 1 s")},
		{Key: "tet/i9-10980xe/kpti+flare", Run: tet("TET-KASLR + KPTI + FLARE", cpu.I9_10980XE(),
			kernel.Config{KASLR: true, KPTI: true, FLARE: true}, 0, "bypasses the state-of-the-art defense")},
		{Key: "tet/i9-10980xe/flare", Run: tet("TET-KASLR + FLARE (no KPTI)", cpu.I9_10980XE(),
			kernel.Config{KASLR: true, FLARE: true}, 0, "4K-partition eviction spares 2M image entries")},
		{Key: "tet/i9-10980xe/docker", Run: tet("TET-KASLR in Docker", cpu.I9_10980XE(),
			kernel.Config{KASLR: true, KPTI: true, Docker: true}, 0, "container namespaces do not help")},
		{Key: "tet/i7-6700", Run: tet("TET-KASLR", cpu.I7_6700(), kernel.Config{KASLR: true}, 0, "")},
		{Key: "tet/i7-7700", Run: tet("TET-KASLR", cpu.I7_7700(), kernel.Config{KASLR: true}, 0, "")},
		{Key: "tet/ryzen-5600g", Run: tet("TET-KASLR", cpu.Ryzen5600G(), kernel.Config{KASLR: true}, 0,
			"fails: Zen 3 does not fill the TLB on a faulting access")},
		{Key: "tet/secure-tlb", Run: tet("TET-KASLR vs secure TLB", secure, kernel.Config{KASLR: true}, 0,
			"fails: fill-on-fault removed (proposed hardware fix)")},
		{Key: "tet/fgkaslr", Run: func(context.Context, int64) (KASLRRow, error) {
			return runFGKASLR()
		}},
		{Key: "prefetch/kpti", Run: func(context.Context, int64) (KASLRRow, error) {
			return runPrefetch("prefetch-KASLR (baseline)", kernel.Config{KASLR: true, KPTI: true}, false)
		}},
		{Key: "prefetch/kpti+flare", Run: func(context.Context, int64) (KASLRRow, error) {
			return runPrefetch("prefetch-KASLR + FLARE (baseline)",
				kernel.Config{KASLR: true, KPTI: true, FLARE: true}, true)
		}},
	}
	return sched.Map(ex.ctx(), ex.opts("kaslr", seed), jobs)
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
