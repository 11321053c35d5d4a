package core

import (
	"fmt"

	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
)

// rsbCodeBase keeps the RSB gadget's code away from the probe gadget so the
// two do not alias in the DSB/PHT.
const rsbCodeBase = kernel.UserCodeBase + 0x8000

// RSB is TET-Spectre-V5-RSB (§4.3.3, Listing 1): a call/ret pair whose
// return address is overwritten and flushed, so the ret speculates through
// the stale RSB entry into a gadget that reads an architecturally
// unreachable in-process secret. The secret is decoded from the ToTE: a
// triggering Jcc inside the speculated path squashes the wrong-path work
// early, so the final recovery is cheaper and the whole window *shorter*
// (argmin decode). No fault is involved, hence no suppression is needed and
// the probe rate is far higher than TET-MD's.
type RSB struct {
	m       *cpu.Machine
	prog    *isa.Program
	Batches int
}

// NewTETRSB assembles the Listing 1 gadget.
func NewTETRSB(k *kernel.Kernel) (*RSB, error) {
	if k == nil {
		return nil, errNotBooted
	}
	b := isa.NewBuilder(rsbCodeBase)
	b.MovImm(isa.RSP, kernel.UserStackBase+0x800)
	b.Rdtsc(isa.RSI)
	b.Lfence()
	b.Call("fn")
	// --- speculative return path (Listing 1 lines 5-6) ---
	b.LoadB(isa.RAX, isa.R9, 0) // R9 = secret VA (sandboxed in-process data)
	b.Cmp(isa.RAX, isa.RDX)
	b.Jcc(isa.CondE, "taken")
	b.NopSled(gadgetSled) // fall-through keeps issuing wrong-path work
	b.Jmp("specEnd")
	b.Label("taken")
	b.Lfence() // trigger path stalls issue: cheap final squash
	b.Label("specEnd")
	b.Lfence()
	// --- called function: overwrite + flush the return address (lines 8-11) ---
	b.Label("fn")
	b.MovImm(isa.RAX, 0) // patched below once the landing VA is known
	landingFix := b.Pos() - 1
	b.StoreQ(isa.RSP, 0, isa.RAX)
	b.Clflush(isa.RSP, 0)
	b.Ret() // RSB predicts the line after the call; memory says "landing"
	landingIdx := b.Pos()
	b.Label("landing")
	b.Lfence()
	b.Rdtsc(isa.RDI)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assemble RSB gadget: %w", err)
	}
	prog.Insts[landingFix].Imm = int64(prog.VA(landingIdx))
	return &RSB{m: k.Machine(), prog: prog, Batches: 1}, nil
}

// LeakByte recovers the in-process secret byte at secretVA via the Listing 1
// running-extreme scan, after a 24-probe warm-up.
func (a *RSB) LeakByte(secretVA uint64) (byte, error) {
	p := a.m.Pipe
	return decoder{warmup: 24, batches: a.Batches, sign: SignShorter}.decode(a.m, func(test uint64) (uint64, error) {
		p.SetReg(isa.R9, secretVA)
		p.SetReg(isa.RDX, test)
		return ToTE(p, a.prog)
	})
}

// Leak recovers n bytes of the in-process secret starting at secretVA.
func (a *RSB) Leak(secretVA uint64, n int) (LeakResult, error) {
	return LeakBytes(a.m, "TET-RSB", n, func(i int) (byte, error) {
		return a.LeakByte(secretVA + uint64(i))
	})
}
