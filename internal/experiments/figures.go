package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/pmu"
	"whisper/internal/sched"
	"whisper/internal/stats"
)

// Fig1bResult reproduces Figure 1b: the ToTE frequency data for a sweep of
// test values over a transient block whose Jcc triggers at the secret value.
type Fig1bResult struct {
	Secret      byte
	Samples     [256][]uint64 `json:"-"` // ToTE samples per test value
	ArgmaxVotes [256]int      // per-batch argmax votes
	Decoded     byte
}

// fig1bBatch is one batch's full test-value sweep and its argmax vote.
type fig1bBatch struct {
	totes [256]uint64
	vote  int
}

// Fig1b runs the Figure 1b experiment on the i7-7700. Each batch is an
// independent cell on its own machine, seeded by
// sched.DeriveSeed(seed, "batch/<i>") — the cell key, never the worker — so
// the frequency plot is byte-identical at any Exec.Parallel.
func Fig1b(ex Exec, batches int, seed int64) (*Fig1bResult, error) {
	const secret = 'S'
	batch := func(k *kernel.Kernel) (fig1bBatch, error) {
		k.WriteSecret([]byte{secret})
		pr, err := core.NewProber(k.Machine(), core.SuppressTSX, true)
		if err != nil {
			return fig1bBatch{}, err
		}
		// Warm up the fresh machine's predictor/DSB state.
		for i := 0; i < 16; i++ {
			if _, err := pr.Probe(k.SecretVA(), 256, 0); err != nil {
				return fig1bBatch{}, err
			}
		}
		var out fig1bBatch
		for tv := 0; tv < 256; tv++ {
			t, err := pr.Probe(k.SecretVA(), uint64(tv), 0)
			if err != nil {
				return fig1bBatch{}, err
			}
			out.totes[tv] = t
		}
		out.vote = stats.Argmax(out.totes[:])
		return out, nil
	}
	cells := make([]cell[fig1bBatch], batches)
	for i := range cells {
		key := fmt.Sprintf("batch/%d", i)
		cells[i] = cell[fig1bBatch]{key: key, model: cpu.I7_7700(), cfg: kernel.Config{KASLR: true},
			seed: sched.DeriveSeed(seed, key), run: batch}
	}
	results, err := runCells(ex, "fig1b", seed, cells)
	if err != nil {
		return nil, err
	}
	res := &Fig1bResult{Secret: secret}
	for _, b := range results { // batch order, regardless of completion order
		for tv := 0; tv < 256; tv++ {
			res.Samples[tv] = append(res.Samples[tv], b.totes[tv])
		}
		res.ArgmaxVotes[b.vote]++
	}
	res.Decoded = byte(stats.ArgmaxInt(res.ArgmaxVotes[:]))
	return res, nil
}

// Render formats the frequency plot region around the secret plus the
// argmax votes (the two panels of Fig. 1b).
func (r *Fig1bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1b: ToTE by test value (secret = %q, decoded = %q)\n",
		r.Secret, r.Decoded)
	fmt.Fprintf(&b, "%8s %10s %10s\n", "value", "medianToTE", "votes")
	lo, hi := int(r.Secret)-4, int(r.Secret)+4
	for tv := lo; tv <= hi; tv++ {
		med := stats.MedianU64(r.Samples[tv])
		marker := ""
		if byte(tv) == r.Secret {
			marker = "  <-- secret (red box)"
		}
		fmt.Fprintf(&b, "%8d %10d %10d%s\n", tv, med, r.ArgmaxVotes[tv], marker)
	}
	return b.String()
}

// Fig3 reproduces Figure 3's frontend-resteer evidence: the DSB→MITE
// delivery shift and resteer cycles when the transient Jcc triggers; it is
// the i7-7700 TET-CC scene of Table 3.
func Fig3(seed int64) (Table3Scene, error) { return fig3(Serial(), seed) }

// fig3 runs Fig3's scene as a one-cell sweep on ex.
func fig3(ex Exec, seed int64) (Table3Scene, error) {
	scenes, err := runCells(ex, "fig3", seed, []cell[Table3Scene]{{
		key: "cc-i7-7700", model: cpu.I7_7700(), cfg: kernel.Config{KASLR: true}, seed: seed,
		run: sceneCC([]KeyEvent{
			{Event: "IDQ.DSB_UOPS", PaperA: 119, PaperB: 115, WantDir: -1},
			{Event: "IDQ.MS_MITE_UOPS", PaperA: 77, PaperB: 97, WantDir: 1},
			{Event: "INT_MISC.CLEAR_RESTEER_CYCLES", PaperA: 27, PaperB: 39, WantDir: 1},
		}),
	}})
	if err != nil {
		return Table3Scene{}, err
	}
	return scenes[0], nil
}

// Fig4Point is one fence-distance configuration of the §5.2.5 experiment.
type Fig4Point struct {
	NopsBeforeFence int
	UopsNoTrigger   float64
	UopsTrigger     float64
	Delta           float64 // trigger - no-trigger
}

// Fig4 reproduces the Figure 4 / §5.2.5 transient-flow experiment: as the
// mfence moves further down the fall-through path (more nops before it), the
// UOPS_ISSUED.ANY delta between trigger and no-trigger flips sign — close
// fences throttle the fall-through path (trigger issues more), distant
// fences leave it free running until the rollback (trigger issues fewer).
func Fig4(ex Exec, seed int64) ([]Fig4Point, error) {
	sweep := []int{0, 2, 4, 8, 16, 24, 32, 48}
	cells := make([]cell[Fig4Point], len(sweep))
	for i, nops := range sweep {
		cells[i] = cell[Fig4Point]{key: fmt.Sprintf("nops/%d", nops), model: cpu.I7_6700(),
			cfg: kernel.Config{KASLR: true}, seed: seed,
			run: func(k *kernel.Kernel) (Fig4Point, error) { return fig4Point(k, nops) }}
	}
	return runCells(ex, "fig4", seed, cells)
}

// fig4Point measures one fence-distance configuration on k.
func fig4Point(k *kernel.Kernel, nops int) (Fig4Point, error) {
	m := k.Machine()
	prog, err := fig4Gadget(nops)
	if err != nil {
		return Fig4Point{}, err
	}
	probe := func(trigger bool) error {
		cmp := uint64(0)
		if trigger {
			cmp = 1
		}
		p := m.Pipe
		p.SetReg(isa.RBX, core.UnmappedVA)
		p.SetReg(isa.RDX, 1)
		p.SetReg(isa.RCX, cmp)
		_, err := p.Exec(prog, 500_000)
		return err
	}
	detrain := func() error {
		for i := 0; i < 2; i++ {
			if err := probe(false); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 12; i++ {
		if err := probe(false); err != nil {
			return Fig4Point{}, err
		}
	}
	var probeErr error
	const runs = 16
	mean := func(trigger bool) float64 {
		var total float64
		for i := 0; i < runs; i++ {
			if err := detrain(); err != nil {
				probeErr = err
				return 0
			}
			before := m.PMU.Read(pmu.UopsIssuedAny)
			if err := probe(trigger); err != nil {
				probeErr = err
				return 0
			}
			total += float64(m.PMU.Read(pmu.UopsIssuedAny) - before)
		}
		return total / runs
	}
	a := mean(false)
	b := mean(true)
	if probeErr != nil {
		return Fig4Point{}, probeErr
	}
	return Fig4Point{
		NopsBeforeFence: nops,
		UopsNoTrigger:   a,
		UopsTrigger:     b,
		Delta:           b - a,
	}, nil
}

// fig4Gadget is the transient-flow gadget with a parameterised nop sled
// before the fall-through path's mfence.
func fig4Gadget(nopsBeforeFence int) (*isa.Program, error) {
	b := isa.NewBuilder(kernel.UserCodeBase + 0x30000)
	b.Rdtsc(isa.RSI)
	b.Lfence()
	b.Xbegin("abort")
	b.LoadB(isa.RAX, isa.RBX, 0) // faulting load opens the window
	b.Cmp(isa.RCX, isa.RDX)
	b.Jcc(isa.CondE, "taken")
	b.NopSled(nopsBeforeFence) // fall-through: path ① of Fig. 4
	b.Mfence()
	b.Jmp("end")
	b.Label("taken") // path ③ of Fig. 4
	b.NopSled(8)
	b.Label("end")
	b.Xend()
	b.Halt()
	b.Label("abort")
	b.Rdtsc(isa.RDI)
	b.Halt()
	return b.Assemble()
}

// RenderFig4 formats the sweep.
func RenderFig4(points []Fig4Point) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4 / §5.2.5: UOPS_ISSUED.ANY vs fence distance")
	fmt.Fprintf(&b, "%16s %14s %14s %10s\n", "nops-to-fence", "no-trigger", "trigger", "delta")
	for _, p := range points {
		fmt.Fprintf(&b, "%16d %14.1f %14.1f %+10.1f\n",
			p.NopsBeforeFence, p.UopsNoTrigger, p.UopsTrigger, p.Delta)
	}
	return b.String()
}
