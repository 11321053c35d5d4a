// Package baseline implements the comparison attacks the paper positions
// Whisper against: the Flush+Reload cache covert channel [26], classic
// Meltdown with a Flush+Reload probe array [17], and a prefetch-timing KASLR
// probe in the EntryBleed family [18] — the attack class FLARE defeats,
// while TET-KASLR survives.
package baseline

import (
	"errors"
	"fmt"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// Shared-memory layout within the user data region.
const (
	sharedLineVA = kernel.UserDataBase + 0x2000 // F+R channel line
	probeArrayVA = kernel.UserDataBase + 0x4000 // Meltdown-F+R probe array
	probeStride  = 256                          // one cache line (plus slack) per value
	frCodeBase   = kernel.UserCodeBase + 0x18000
	mdCodeBase   = kernel.UserCodeBase + 0x20000
	pfCodeBase   = kernel.UserCodeBase + 0x28000
	maxCycles    = 500_000
)

// FlushReload is the classic cache-timing covert channel: the sender touches
// (or not) a shared line; the receiver times a reload and flushes the line
// for the next round.
type FlushReload struct {
	m         *cpu.Machine
	touch     *isa.Program
	timedLoad *isa.Program
	threshold uint64
}

// NewFlushReload builds the channel on a booted kernel.
func NewFlushReload(k *kernel.Kernel) (*FlushReload, error) {
	if k == nil {
		return nil, errors.New("baseline: nil kernel")
	}
	touch := isa.NewBuilder(frCodeBase).
		MovImm(isa.RBX, sharedLineVA).
		LoadQ(isa.RAX, isa.RBX, 0).
		Halt().
		MustAssemble()
	timed := isa.NewBuilder(frCodeBase+0x1000).
		MovImm(isa.RBX, sharedLineVA).
		Mfence().
		Rdtsc(isa.RSI).
		Lfence().
		LoadQ(isa.RAX, isa.RBX, 0).
		Lfence().
		Rdtsc(isa.RDI).
		Clflush(isa.RBX, 0). // reset for the next round
		Mfence().
		Halt().
		MustAssemble()
	c := &FlushReload{m: k.Machine(), touch: touch, timedLoad: timed}
	if err := c.calibrate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *FlushReload) reload() (uint64, error) {
	p := c.m.Pipe
	if _, err := p.Exec(c.timedLoad, maxCycles); err != nil {
		return 0, fmt.Errorf("baseline: F+R reload: %w", err)
	}
	return p.Reg(isa.RDI) - p.Reg(isa.RSI), nil
}

func (c *FlushReload) send(bit bool) error {
	if !bit {
		return nil
	}
	_, err := c.m.Pipe.Exec(c.touch, maxCycles)
	return err
}

// sendBit transmits one bit and returns the receiver's decision: a reload
// faster than the threshold hit the line the sender touched.
func (c *FlushReload) sendBit(bit bool) (bool, error) {
	if err := c.send(bit); err != nil {
		return false, err
	}
	t, err := c.reload()
	return t < c.threshold, err
}

func (c *FlushReload) calibrate() error {
	var hit, miss []uint64
	for i := 0; i < 8; i++ {
		if err := c.send(true); err != nil {
			return err
		}
		t, err := c.reload()
		if err != nil {
			return err
		}
		hit = append(hit, t)
		t, err = c.reload() // line was flushed by the previous reload
		if err != nil {
			return err
		}
		miss = append(miss, t)
	}
	h, m := stats.MedianU64(hit), stats.MedianU64(miss)
	if h >= m {
		return errors.New("baseline: no flush+reload signal")
	}
	c.threshold = (h + m) / 2
	return nil
}

// Transfer sends data through the cache channel.
func (c *FlushReload) Transfer(data []byte) (core.LeakResult, error) {
	return core.LeakBytes(c.m, "Flush+Reload", len(data), func(i int) (byte, error) {
		return core.SendByte(data[i], c.sendBit)
	})
}

// MeltdownFR is the original Meltdown attack with a 256-entry Flush+Reload
// probe array as the covert channel, for head-to-head comparison with
// TET-MD.
type MeltdownFR struct {
	k         *kernel.Kernel
	m         *cpu.Machine
	transient *isa.Program
	timed     *isa.Program
	Reps      int
}

// NewMeltdownFR builds the attack.
func NewMeltdownFR(k *kernel.Kernel) (*MeltdownFR, error) {
	if k == nil {
		return nil, errors.New("baseline: nil kernel")
	}
	// Transient gadget: secret byte indexes the probe array.
	b := isa.NewBuilder(mdCodeBase)
	b.MovImm(isa.R10, probeArrayVA)
	b.LoadB(isa.RAX, isa.RBX, 0) // faulting kernel load
	b.ShlImm(isa.RAX, isa.RAX, 8)
	b.Add(isa.RAX, isa.RAX, isa.R10)
	b.LoadB(isa.RCX, isa.RAX, 0) // transient probe-array fill
	b.Halt()
	b.Label("handler")
	b.Halt()
	transient := b.MustAssemble()

	timed := isa.NewBuilder(mdCodeBase+0x1000).
		Mfence().
		Rdtsc(isa.RSI).
		Lfence().
		LoadB(isa.RAX, isa.RBX, 0). // RBX = probe slot address
		Lfence().
		Rdtsc(isa.RDI).
		Halt().
		MustAssemble()
	return &MeltdownFR{k: k, m: k.Machine(), transient: transient, timed: timed, Reps: 3}, nil
}

// flushProbeArray evicts all 256 probe lines (the attacker's clflush loop,
// charged analytically).
func (a *MeltdownFR) flushProbeArray() {
	for v := 0; v < 256; v++ {
		va := uint64(probeArrayVA + v*probeStride)
		if pa, ok := a.k.UserAS().Translate(va); ok {
			a.m.Hier.Flush(pa)
		}
	}
	a.m.Pipe.Skip(256 * 12)
}

// LeakByte recovers one byte at kernel VA va.
func (a *MeltdownFR) LeakByte(va uint64) (byte, error) {
	votes := make([]int, 256)
	times := make([]uint64, 256)
	p := a.m.Pipe
	for rep := 0; rep < a.Reps; rep++ {
		a.flushProbeArray()
		p.SetSignalHandler(a.transient.Len() - 1)
		p.SetReg(isa.RBX, va)
		_, err := p.Exec(a.transient, maxCycles)
		p.SetSignalHandler(-1)
		if err != nil {
			return 0, fmt.Errorf("baseline: meltdown transient: %w", err)
		}
		for v := 0; v < 256; v++ {
			p.SetReg(isa.RBX, uint64(probeArrayVA+v*probeStride))
			if _, err := p.Exec(a.timed, maxCycles); err != nil {
				return 0, err
			}
			times[v] = p.Reg(isa.RDI) - p.Reg(isa.RSI)
		}
		votes[stats.Argmin(times)]++
	}
	return byte(stats.ArgmaxInt(votes)), nil
}

// Leak recovers n bytes starting at va.
func (a *MeltdownFR) Leak(va uint64, n int) (core.LeakResult, error) {
	return core.LeakBytes(a.m, "Meltdown-F+R", n, func(i int) (byte, error) {
		return a.LeakByte(va + uint64(i))
	})
}

// PrefetchKASLR is the EntryBleed-style baseline: time a software prefetch
// of each candidate address after a TLB eviction plus a priming prefetch.
// Mapped targets hit the primed TLB entry; unmapped ones page-walk. FLARE
// defeats exactly this probe (every target becomes mapped), which the
// Table 2 / §6.1 comparison demonstrates.
type PrefetchKASLR struct {
	k    *kernel.Kernel
	m    *cpu.Machine
	prog *isa.Program
	Reps int
}

// NewPrefetchKASLR builds the baseline probe.
func NewPrefetchKASLR(k *kernel.Kernel) (*PrefetchKASLR, error) {
	if k == nil {
		return nil, errors.New("baseline: nil kernel")
	}
	prog := isa.NewBuilder(pfCodeBase).
		Mfence().
		Rdtsc(isa.RSI).
		Lfence().
		Prefetch(isa.RBX, 0).
		Lfence().
		Rdtsc(isa.RDI).
		Halt().
		MustAssemble()
	return &PrefetchKASLR{k: k, m: k.Machine(), prog: prog, Reps: 8}, nil
}

func (a *PrefetchKASLR) probe(target uint64) (uint64, error) {
	a.m.Pipe.SetReg(isa.RBX, target)
	return core.ToTE(a.m.Pipe, a.prog)
}

// Locate scans all slots through core.ScanSlots, timing each with the
// standard evict–prime–measure procedure over the prefetch probe, and
// returns the recovered base. It has no FLARE bypass: that is the point of
// this baseline.
func (a *PrefetchKASLR) Locate() (core.KASLRResult, error) {
	return core.ScanSlots(a.k, "prefetch-KASLR", func(s int) (uint64, error) {
		return core.SlotTime(a.k, a.Reps, a.k.ProbeTarget(s), a.probe)
	})
}
