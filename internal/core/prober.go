// Package core implements the paper's contribution: the Whisper transient
// execution timing (TET) side channel and the attacks built on it — the
// TET covert channel, TET-Meltdown, TET-Zombieload, TET-Spectre-V5-RSB, and
// TET-KASLR (plain, KPTI, FLARE, Docker). Gadgets are assembled for the
// simulated core; every timing signal is an emergent property of the
// pipeline model, not scripted.
package core

import (
	"errors"
	"fmt"

	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// Sign is the direction of the TET signal: whether triggering the transient
// Jcc makes the window longer or shorter.
type Sign int

// Signal directions. Meltdown-style permission faults serialise the machine
// clear behind the recovery (longer); Zombieload's abortable assist and
// Spectre-RSB's cheaper final squash end the window early (shorter).
const (
	SignLonger Sign = iota
	SignShorter
)

// Suppression selects how the attacker survives the fault.
type Suppression int

// Suppression mechanisms (the paper's transient_begin, after [4]).
const (
	SuppressTSX Suppression = iota
	SuppressSignal
)

// maxProbeCycles bounds one gadget execution; generous but finite.
const maxProbeCycles = 500_000

// Prober measures the ToTE of one TET gadget (Fig. 1a). The gadget is
// parameterised by registers so the predictor sees a single branch PC across
// the whole sweep, exactly like the C original:
//
//	RBX — transient load target (kernel VA, unmapped VA, ...)
//	RDX — test value
//	RCX — comparison source: RAX (the transiently loaded value) for
//	      MD/ZBL-style probes, or a sender-controlled value for the CC.
type Prober struct {
	m        *cpu.Machine
	prog     *isa.Program
	suppress Suppression
}

// gadgetLayout records instruction indices the harness needs.
const gadgetSled = 24

// NewProber assembles the TET probe gadget. cmpLoaded selects whether the
// Jcc compares the transiently loaded value (side-channel read) or two
// attacker registers (covert-channel send). The suppression mechanism falls
// back to signals when the model has no TSX.
func NewProber(m *cpu.Machine, suppress Suppression, cmpLoaded bool) (*Prober, error) {
	if suppress == SuppressTSX && !m.Model.HasTSX {
		suppress = SuppressSignal
	}
	b := isa.NewBuilder(kernel.UserCodeBase)
	b.Rdtsc(isa.RSI)
	b.Lfence()
	if suppress == SuppressTSX {
		b.Xbegin("abort")
	}
	// ---- transient block (Fig. 1a lines 2-3) ----
	b.LoadB(isa.RAX, isa.RBX, 0) // faulting load opens the window
	if cmpLoaded {
		b.Cmp(isa.RAX, isa.RDX)
	} else {
		b.Cmp(isa.RCX, isa.RDX)
	}
	b.Jcc(isa.CondE, "taken")
	b.Lfence() // fall-through path stops issuing (Fig. 4, path ①)
	b.Jmp("end")
	b.Label("taken")
	b.Nop() // the Fig. 1a gadget's "nop" arm; paths reconverge at the fence
	b.Label("end")
	if suppress == SuppressTSX {
		b.Xend()
	}
	b.Halt() // never retires: the fault always rolls the block back
	b.Label("abort")
	b.Rdtsc(isa.RDI)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assemble probe gadget: %w", err)
	}
	pr := &Prober{m: m, prog: prog, suppress: suppress}
	return pr, nil
}

// abortIndex is the instruction index of the fault handler (the label
// "abort"): the program's penultimate pair.
func (pr *Prober) abortIndex() int { return pr.prog.Len() - 2 }

// Probe runs the gadget and returns the measured ToTE in cycles. target is
// the transient load address; test and cmp load the RDX/RCX registers. A
// sample whose timer pair is inverted (an interrupt spiked the first read)
// is discarded and re-measured, as a real attacker would.
//
// With observability enabled the probe is wrapped in a span carrying the
// measured ToTE, feeds the core.probe.tote cycle histogram, and samples the
// PMU; the nil-registry default adds a single pointer compare.
func (pr *Prober) Probe(target uint64, test, cmp uint64) (uint64, error) {
	r := pr.m.Obs
	if r == nil {
		return pr.probe(target, test, cmp)
	}
	p := pr.m.Pipe
	sp := r.StartSpan("core.probe", p.Cycle())
	sp.AttrHex("target", target)
	tote, err := pr.probe(target, test, cmp)
	if err != nil {
		sp.Attr("error", err.Error())
		r.Counter("core.probe.errors").Inc()
	} else {
		sp.AttrU64("tote", tote)
		r.Histogram("core.probe.tote").Observe(tote)
	}
	r.Counter("core.probes").Inc()
	sp.End(p.Cycle())
	r.SamplePMU(p.Cycle(), pr.m.PMU.Snapshot())
	return tote, err
}

// probe is the uninstrumented measurement path.
func (pr *Prober) probe(target uint64, test, cmp uint64) (uint64, error) {
	p := pr.m.Pipe
	if pr.suppress == SuppressSignal {
		p.SetSignalHandler(pr.abortIndex())
		defer p.SetSignalHandler(-1)
	}
	p.SetReg(isa.RBX, target)
	p.SetReg(isa.RDX, test)
	p.SetReg(isa.RCX, cmp)
	return ToTE(p, pr.prog)
}

// SweepByte performs the paper's §4.3.1 decoding: traverse test values
// 0..255 in batches, per batch vote for the extreme-ToTE value, and return
// the argmax of the votes. sign selects max- or min-extreme. prep, when
// non-nil, runs before every probe (victim refresh, eviction, ...).
func (pr *Prober) SweepByte(target uint64, batches int, sign Sign, prep func()) (byte, error) {
	return pr.sweep(target, decoder{warmup: 16, batches: batches, sign: sign}, prep)
}

// SweepByteMedian is SweepByte with the per-value median decoder, which
// tolerates several times more timer jitter than the vote.
func (pr *Prober) SweepByteMedian(target uint64, batches int, sign Sign, prep func()) (byte, error) {
	return pr.sweep(target, decoder{warmup: 16, batches: batches, sign: sign, median: true}, prep)
}

func (pr *Prober) sweep(target uint64, d decoder, prep func()) (byte, error) {
	return d.decode(pr.m, func(test uint64) (uint64, error) {
		if prep != nil {
			prep()
		}
		return pr.Probe(target, test, 0)
	})
}

// ProbeStable measures one trigger/no-trigger probe after two de-training
// probes that hold the gadget's branch at predicted-not-taken. Without the
// resets, a run of identical symbols would train the PHT and erase the
// misprediction the channel is made of.
func (pr *Prober) ProbeStable(target uint64, trigger bool) (uint64, error) {
	for i := 0; i < 2; i++ {
		if _, err := pr.Probe(target, 1, 0); err != nil {
			return 0, err
		}
	}
	cmp := uint64(0)
	if trigger {
		cmp = 1
	}
	return pr.Probe(target, 1, cmp)
}

// Calibrate measures the ToTE distribution of triggered vs untriggered
// probes (the covert channel's training preamble) and returns a decision
// threshold plus the measured polarity.
func (pr *Prober) Calibrate(target uint64, reps int) (threshold uint64, oneIsLonger bool, err error) {
	sp := pr.m.Obs.StartSpan("core.calibrate", pr.m.Pipe.Cycle())
	sp.AttrInt("reps", reps)
	threshold, oneIsLonger, err = pr.calibrate(target, reps)
	if err == nil {
		sp.AttrU64("threshold", threshold)
		sp.AttrBool("oneIsLonger", oneIsLonger)
	}
	sp.End(pr.m.Pipe.Cycle())
	return threshold, oneIsLonger, err
}

func (pr *Prober) calibrate(target uint64, reps int) (threshold uint64, oneIsLonger bool, err error) {
	ones := make([]uint64, 0, reps)
	zeros := make([]uint64, 0, reps)
	for i := 0; i < reps; i++ {
		t1, err := pr.ProbeStable(target, true)
		if err != nil {
			return 0, false, err
		}
		t0, err := pr.ProbeStable(target, false)
		if err != nil {
			return 0, false, err
		}
		ones = append(ones, t1)
		zeros = append(zeros, t0)
	}
	m1 := stats.MedianU64(ones)
	m0 := stats.MedianU64(zeros)
	if m1 == m0 {
		return 0, false, errors.New("core: calibration found no TET signal")
	}
	return (m1 + m0) / 2, m1 > m0, nil
}
