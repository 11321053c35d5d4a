package core

import (
	"errors"
	"fmt"

	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// kaslrCodeBase isolates the KASLR gadget's code from the other gadgets.
const kaslrCodeBase = kernel.UserCodeBase + 0x10000

// KASLR is TET-KASLR (§4.5, Listing 2): mapping detection through the ToTE
// of an illegal kernel access. On the Intel models, a permission-faulting
// access to a *mapped* address fills the DTLB, so repeated probes translate
// instantly, while unmapped addresses page-walk on every probe — a ToTE
// difference the in-window Jcc amplifies. On the AMD model the TLB never
// fills on a faulting access and the attack collapses (Table 2 ✗).
type KASLR struct {
	k    *kernel.Kernel
	prog *isa.Program
	// Reps is the number of eviction+probe rounds per candidate slot.
	Reps int
}

// KASLRResult reports one KASLR break attempt.
type KASLRResult struct {
	Slot    int     // recovered slot index
	Base    uint64  // recovered kernel base address
	Cycles  uint64  // simulated cycles the scan consumed
	Seconds float64 // at the model's clock
}

// NewTETKASLR assembles the Listing 2 probe gadget.
func NewTETKASLR(k *kernel.Kernel) (*KASLR, error) {
	if k == nil {
		return nil, errNotBooted
	}
	m := k.Machine()
	suppressTSX := m.Model.HasTSX
	b := isa.NewBuilder(kaslrCodeBase)
	b.Rdtsc(isa.RSI)
	b.Mfence()
	if suppressTSX {
		b.Xbegin("abort")
	}
	// ---- Listing 2: illegal access + attacker-condition Jcc ----
	b.LoadQ(isa.RAX, isa.RBX, 0) // illegal kernel access opens the window
	b.Cmp(isa.R8, isa.RDX)       // attacker-controlled condition (test_num vs secret)
	b.Jcc(isa.CondE, "taken")
	b.Lfence()
	b.Jmp("end")
	b.Label("taken")
	b.NopSled(gadgetSled)
	b.Label("end")
	if suppressTSX {
		b.Xend()
	}
	b.Halt()
	b.Label("abort")
	b.Mfence()
	b.Rdtsc(isa.RDI)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assemble KASLR gadget: %w", err)
	}
	a := &KASLR{k: k, prog: prog, Reps: 16}
	return a, nil
}

// probe measures one ToTE of an illegal access to target. The Jcc condition
// is held not-taken: the mapping signal is the window length itself (TLB hit
// vs page walk, amplified by the per-uop flush cost of everything the longer
// window lets the frontend issue). On MDS-vulnerable parts a *triggered* Jcc
// would cut the unmapped probe's abortable assist short and corrupt the
// signal, so the sweep never triggers it.
func (a *KASLR) probe(target uint64) (uint64, error) {
	m := a.k.Machine()
	p := m.Pipe
	if !m.Model.HasTSX {
		p.SetSignalHandler(a.prog.Len() - 3)
		defer p.SetSignalHandler(-1)
	}
	p.SetReg(isa.RBX, target)
	p.SetReg(isa.R8, 1)
	p.SetReg(isa.RDX, 0)
	return ToTE(p, a.prog)
}

// slotTimeFLARE measures slot s under FLARE: every probe target is mapped,
// so mapping detection per se is defeated. The bypass primitive: prime the
// TLB with a probe, force a syscall round-trip (KPTI CR3 writes flush
// non-global entries — FLARE dummies — while the global trampoline/image
// entries survive), then measure. Without KPTI the same asymmetry is reached
// by cycling only the 4 KiB DTLB partition, which spares the kernel image's
// 2 MiB entries.
func (a *KASLR) slotTimeFLARE(s int) (uint64, error) {
	target := a.k.ProbeTarget(s)
	return medianOf(a.Reps, func() (uint64, error) {
		if _, err := a.probe(target); err != nil { // prime the TLB entry
			return 0, err
		}
		if a.k.Config().KPTI {
			a.k.SyscallRoundTrip()
		} else {
			a.k.EvictDTLB4K()
		}
		a.k.EvictProbePTEs(s) // force any re-walk to DRAM
		return a.probe(target)
	})
}

// Locate scans all 512 candidate slots with the Listing 2 probe, through
// the FLARE bypass when the kernel runs FLARE, and returns the recovered
// kernel base (ScanSlots).
func (a *KASLR) Locate() (KASLRResult, error) {
	slotTime := func(s int) (uint64, error) {
		return SlotTime(a.k, a.Reps, a.k.ProbeTarget(s), a.probe)
	}
	if a.k.Config().FLARE {
		slotTime = a.slotTimeFLARE
	}
	return ScanSlots(a.k, "TET-KASLR", slotTime)
}

// SlotTime returns the median time probe takes on target under the standard
// procedure, reps rounds of: evict the TLB, let a first probe (re)establish
// whatever the hardware caches for this address, then measure a second.
func SlotTime(k *kernel.Kernel, reps int, target uint64, probe func(target uint64) (uint64, error)) (uint64, error) {
	return medianOf(reps, func() (uint64, error) {
		k.EvictTLB()
		if _, err := probe(target); err != nil { // warm: fills the TLB iff mapped
			return 0, err
		}
		return probe(target)
	})
}

// medianOf returns the median of reps samples. It rejects reps ≤ 0 before
// taking any, so a misconfigured scan fails instead of reading as "no
// signal".
func medianOf(reps int, sample func() (uint64, error)) (uint64, error) {
	if reps <= 0 {
		return 0, errors.New("core: KASLR reps must be positive")
	}
	times := make([]uint64, reps)
	for i := range times {
		t, err := sample()
		if err != nil {
			return 0, err
		}
		times[i] = t
	}
	return stats.MedianU64(times), nil
}

// ScanSlots is the slot scan of every KASLR attack, TET-KASLR's and the
// prefetch baseline's: it times each of the 512 candidate slots with
// slotTime and returns the first slot on the mapped side of the threshold
// between the fastest observation and the unmapped majority (firstMapped).
// It opens one core.kaslr.locate span, named by attack, and one
// core.kaslr.slot span per slot carrying its median ToTE.
func ScanSlots(k *kernel.Kernel, attack string, slotTime func(slot int) (uint64, error)) (KASLRResult, error) {
	m := k.Machine()
	cfg := k.Config()
	sp := m.Obs.StartSpan("core.kaslr.locate", m.Pipe.Cycle())
	sp.Attr("cpu", m.Model.Name)
	sp.Attr("attack", attack)
	sp.AttrBool("kpti", cfg.KPTI)
	sp.AttrBool("flare", cfg.FLARE)
	start := m.Pipe.Cycle()
	times := make([]uint64, kernel.NumSlots)
	for s := range times {
		ssp := m.Obs.StartSpan("core.kaslr.slot", m.Pipe.Cycle())
		ssp.AttrInt("slot", s)
		t, err := slotTime(s)
		if err != nil {
			sp.Attr("error", err.Error())
			sp.End(m.Pipe.Cycle())
			return KASLRResult{}, err
		}
		times[s] = t
		ssp.AttrU64("medianToTE", t)
		ssp.End(m.Pipe.Cycle())
		if m.Obs != nil {
			m.Obs.Histogram("core.kaslr.slotToTE").Observe(t)
			m.Obs.SamplePMU(m.Pipe.Cycle(), m.PMU.Snapshot())
		}
	}
	slot := firstMapped(times)
	cycles := m.Pipe.Cycle() - start
	res := KASLRResult{Slot: slot, Cycles: cycles, Seconds: m.Seconds(cycles)}
	if slot >= 0 {
		res.Base = kernel.SlotVA(slot)
	}
	sp.AttrInt("slot", slot)
	sp.AttrHex("base", res.Base)
	sp.AttrBool("hit", slot == k.BaseSlot())
	sp.End(m.Pipe.Cycle())
	m.Obs.Histogram("core.kaslr.scanCycles").Observe(cycles)
	return res, nil
}

// noSignalGap is the minimum separation (cycles) between the fastest slot
// and the unmapped majority for the scan to count as a detection; anything
// tighter is measurement noise (the defended/AMD cases).
const noSignalGap = 15

// firstMapped picks the first slot on the fast (mapped) side of a threshold
// placed between the global minimum and the unmapped majority's median. It
// returns -1 when the distribution carries no mapping signal.
func firstMapped(times []uint64) int {
	min := times[stats.Argmin(times)]
	med := stats.MedianU64(times) // almost all slots are unmapped
	if med-min < noSignalGap {
		return -1
	}
	threshold := (min + med) / 2
	for s, t := range times {
		if t <= threshold {
			return s
		}
	}
	return stats.Argmin(times)
}
