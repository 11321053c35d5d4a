// Package fuzzgen is the structured program generator behind the simulator's
// differential-fuzzing subsystem. It turns an arbitrary byte string — a fuzz
// engine's mutated input — into a valid, always-terminating ISA program
// exercising the corners the transient-execution attacks live in: loads and
// stores of every size, faulting accesses, TSX and signal-suppressed
// transient blocks, dependent and independent conditional branches, bounded
// loops, calls, fences and cache maintenance. The same generator drives the
// package's Fuzz* targets and the pinned differential tests in
// internal/interp.
//
// The Go toolchain is the only fuzz engine: `go test -fuzz` mutates and
// minimizes inputs and writes crashers to testdata/fuzz/<FuzzX>/, and plain
// `go test` replays every file there as subtest <FuzzX>/<file>.
//
// Generation is total and deterministic: every byte string (including the
// empty one) produces an assemblable program, and equal bytes produce
// byte-identical programs — the property that makes corpus entries
// replayable crash artifacts.
package fuzzgen

import (
	"fmt"

	"whisper/internal/isa"
)

// The fixed memory layout generated programs address. Code, data and stack
// are user pages; everything else faults (the transient-access surface).
const (
	CodeBase   = 0x400000
	CodePages  = 16
	DataBase   = 0x500000
	DataPages  = 8
	StackBase  = 0x7f0000
	StackPages = 4

	pageSize = 4096
	// DataRegionSize is the span of the generated programs' read-write data.
	DataRegionSize = DataPages * pageSize
)

// GenRegs are the registers generated code computes with. RSP carries the
// stack discipline; R13/R14 are transient-block markers; R15 is the loop
// counter — all compared, none clobbered by generated blocks.
var GenRegs = []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}

// CompareRegs returns every register a differential check must compare:
// the generated-code registers plus the structural ones.
func CompareRegs() []isa.Reg {
	return append(append([]isa.Reg{}, GenRegs...), isa.RSP, isa.R13, isa.R14, isa.R15)
}

// Spec is one generated test case: the program, the signal-handler
// instruction index to install (-1 for none), and the seed for the data
// region's initial contents.
type Spec struct {
	Prog    *isa.Program
	Handler int
	MemSeed int64
}

// src is a deterministic byte cursor over the fuzz input. Reads past the end
// return zeros, which makes generation total: any input yields a program.
type src struct {
	data []byte
	pos  int
}

func (s *src) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

// intn returns a value in [0, n), consuming as many bytes as n's range needs
// so large ranges (page offsets, wild addresses) are not biased to one byte.
func (s *src) intn(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 1<<8:
		return int(s.byte()) % n
	case n <= 1<<16:
		return (int(s.byte())<<8 | int(s.byte())) % n
	default:
		return int(s.uint32()&0x7fffffff) % n
	}
}

func (s *src) coin() bool { return s.byte()&1 == 1 }

func (s *src) uint32() uint32 {
	return uint32(s.byte()) | uint32(s.byte())<<8 | uint32(s.byte())<<16 | uint32(s.byte())<<24
}

func (s *src) uint64() uint64 {
	return uint64(s.uint32()) | uint64(s.uint32())<<32
}

// take returns the next n input bytes (short when the input runs out).
func (s *src) take(n int) []byte {
	if s.pos >= len(s.data) || n <= 0 {
		return nil
	}
	end := s.pos + n
	if end > len(s.data) {
		end = len(s.data)
	}
	b := s.data[s.pos:end]
	s.pos = end
	return b
}

// gen carries the builder state for one program.
type gen struct {
	s      *src
	b      *isa.Builder
	labels int
}

func (g *gen) label() string {
	g.labels++
	return fmt.Sprintf("l%d", g.labels)
}

func (g *gen) reg() isa.Reg { return GenRegs[g.s.intn(len(GenRegs))] }

// dataAddr materialises a valid data-region address in dst.
func (g *gen) dataAddr(dst isa.Reg) {
	off := int64(g.s.intn(DataRegionSize/8)) * 8
	g.b.MovImm(dst, DataBase+off)
}

// wildAddr materialises an address with no translation — the transient-fault
// surface the KASLR probes and MDS assists run on.
func (g *gen) wildAddr(dst isa.Reg) {
	bases := [...]int64{0x40000000, 0x50000000, 0x70000000}
	g.b.MovImm(dst, bases[g.s.intn(len(bases))]+int64(g.s.intn(1<<20))*pageSize)
}

var accessSizes = [...]int{1, 2, 4, 8}

// block emits n straight-line-ish instructions: ALU work, loads/stores of
// every size, cache maintenance, fences, and forward conditional branches
// whose conditions are either dependent on the block's dataflow or pinned by
// immediates (the paper's §5 dependent-vs-independent Jcc distinction).
// Blocks never fault and never jump backwards.
func (g *gen) block(n int) {
	b, s := g.b, g.s
	for i := 0; i < n; i++ {
		switch s.intn(16) {
		case 0:
			b.MovImm(g.reg(), int64(int32(s.uint32())))
		case 1:
			b.Mov(g.reg(), g.reg())
		case 2:
			b.Add(g.reg(), g.reg(), g.reg())
		case 3:
			b.Sub(g.reg(), g.reg(), g.reg())
		case 4:
			b.Xor(g.reg(), g.reg(), g.reg())
		case 5:
			b.Imul(g.reg(), g.reg(), g.reg())
		case 6:
			b.AndImm(g.reg(), g.reg(), int64(s.uint32()))
		case 7:
			b.ShlImm(g.reg(), g.reg(), int64(s.intn(63)))
		case 8:
			b.ShrImm(g.reg(), g.reg(), int64(s.intn(63)))
		case 9:
			a := g.reg()
			g.dataAddr(a)
			d := g.reg()
			if d == a {
				d = isa.RAX
			}
			b.Load(d, a, 0, accessSizes[s.intn(len(accessSizes))])
		case 10:
			a := g.reg()
			g.dataAddr(a)
			b.Store(a, 0, g.reg(), accessSizes[s.intn(len(accessSizes))])
		case 11:
			// Independent Jcc: the condition comes from immediates, not from
			// any value the surrounding code computed.
			skip := g.label()
			t := g.reg()
			b.MovImm(t, int64(s.intn(8)))
			b.CmpImm(t, int64(s.intn(8)))
			b.Jcc(isa.Cond(s.intn(8)), skip)
			b.Add(g.reg(), g.reg(), g.reg())
			b.Label(skip)
		case 12:
			// Dependent Jcc: the condition hangs off live dataflow.
			skip := g.label()
			if s.coin() {
				b.Cmp(g.reg(), g.reg())
			} else {
				b.CmpImm(g.reg(), int64(s.intn(16)))
			}
			b.Jcc(isa.Cond(s.intn(8)), skip)
			b.Xor(g.reg(), g.reg(), g.reg())
			b.Add(g.reg(), g.reg(), g.reg())
			b.Label(skip)
		case 13:
			a := g.reg()
			g.dataAddr(a)
			if s.coin() {
				b.Clflush(a, 0)
			} else {
				b.Prefetch(a, 0)
			}
		case 14:
			switch s.intn(3) {
			case 0:
				b.Lfence()
			case 1:
				b.Mfence()
			default:
				b.Sfence()
			}
		default:
			b.Or(g.reg(), g.reg(), g.reg())
		}
	}
}

// loop emits a bounded countdown loop over a block; R15 carries the counter.
func (g *gen) loop() {
	top := g.label()
	g.b.MovImm(isa.R15, int64(2+g.s.intn(6)))
	g.b.Label(top)
	g.block(2 + g.s.intn(6))
	g.b.SubImm(isa.R15, isa.R15, 1)
	g.b.CmpImm(isa.R15, 0)
	g.b.Jcc(isa.CondNE, top)
}

// transientAccess emits one access guaranteed to fault: a load or store with
// no translation, or a store into the read-only code region (the permission
// path). Only called inside suppressed (TSX or signal-handled) sections.
func (g *gen) transientAccess() {
	b, s := g.b, g.s
	a := g.reg()
	switch s.intn(4) {
	case 0: // wild load: not-present fault, MDS-style transient forward
		g.wildAddr(a)
		d := g.reg()
		if d == a {
			d = isa.RAX
		}
		b.Load(d, a, 0, accessSizes[s.intn(len(accessSizes))])
	case 1: // wild store: not-present fault at retire
		g.wildAddr(a)
		b.Store(a, 0, g.reg(), 8)
	case 2: // store to read-only code: permission fault
		b.MovImm(a, CodeBase+int64(s.intn(CodePages*pageSize/8))*8)
		b.Store(a, 0, g.reg(), 8)
	default: // wild load feeding dependent transient work
		g.wildAddr(a)
		d := g.reg()
		if d == a {
			d = isa.RBX
		}
		b.LoadB(d, a, 0)
		b.Add(d, d, d)
	}
}

// tsxBlock emits a transaction. Most abort (a transient access inside plants
// a marker-visible rollback); some commit cleanly, pinning that Xbegin/Xend
// without a fault leaves no trace.
func (g *gen) tsxBlock() {
	b, s := g.b, g.s
	abort, end := g.label(), g.label()
	b.Xbegin(abort)
	g.block(1 + s.intn(3))
	if s.intn(4) != 0 {
		g.transientAccess()
		g.block(1 + s.intn(3)) // transient-only work, must never retire
	}
	b.Xend()
	b.Jmp(end)
	b.Label(abort)
	b.MovImm(isa.R14, int64(0xAB00+s.intn(256)))
	b.Label(end)
}

// signalBlock emits one signal-suppressed transient section and returns the
// handler's instruction index. The handler sits past the faulting access with
// only forward control flow after it, so a program holds at most one of
// these — a second would warp execution backwards through the shared handler.
func (g *gen) signalBlock() int {
	b, s := g.b, g.s
	done := g.label()
	g.transientAccess()
	g.block(1 + s.intn(3)) // transient-only
	b.Jmp(done)
	h := b.Pos()
	b.MovImm(isa.R13, int64(0xCD00+s.intn(256)))
	b.Label(done)
	return h
}

// Generate turns fuzz input into a program (the handler-free view; faulting
// sections are all TSX-suppressed). Most callers want GenerateSpec.
func Generate(data []byte) *isa.Program {
	s := GenerateSpec(data)
	return s.Prog
}

// GenerateSpec turns fuzz input into a complete test case. The emitted
// program always terminates within a few hundred dynamic instructions: loops
// are bounded countdowns, calls target one leaf function, and every faulting
// access is suppressed by TSX or the (single, forward) signal handler.
func GenerateSpec(data []byte) Spec {
	s := &src{data: data}
	b := isa.NewBuilder(CodeBase)
	g := &gen{s: s, b: b}
	spec := Spec{Handler: -1}

	// Prologue: stack discipline and seeded register file.
	b.MovImm(isa.RSP, StackBase+0x2000)
	for _, r := range GenRegs {
		b.MovImm(r, int64(s.uint64()>>16))
	}
	spec.MemSeed = int64(s.uint64()%1_000_003) + 1

	useFn := s.coin()
	nsec := 2 + s.intn(5)
	for i := 0; i < nsec; i++ {
		switch s.intn(6) {
		case 0, 1:
			g.block(3 + s.intn(10))
		case 2:
			g.loop()
		case 3:
			if useFn {
				b.Call("fn")
			} else {
				g.block(2 + s.intn(4))
			}
		case 4:
			g.tsxBlock()
		default:
			g.block(1 + s.intn(4))
			g.loop()
		}
	}
	if s.coin() {
		spec.Handler = g.signalBlock()
	}
	g.block(2 + s.intn(4))
	b.Jmp("end")
	if useFn {
		b.Label("fn")
		g.block(3 + s.intn(6))
		b.Ret()
	}
	b.Label("end")
	b.Halt()
	spec.Prog = b.MustAssemble()
	return spec
}

// GeneratePair splits the input and generates one Spec per half — the
// SMT-pair shape: two independent programs co-scheduled on sibling threads.
func GeneratePair(data []byte) (Spec, Spec) {
	half := len(data) / 2
	return GenerateSpec(data[:half]), GenerateSpec(data[half:])
}
