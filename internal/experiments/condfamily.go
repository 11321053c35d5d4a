package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// CondRow is one conditional-jump flavour's TET signal (§5: "at least 3
// types of Jcc instructions can be used ... we believe that all the
// conditional jump instructions of x86 chips could be exploited").
type CondRow struct {
	Cond      isa.Cond
	Name      string
	QuietToTE uint64
	TrigToTE  uint64
	Delta     int64
}

// condOperands returns RCX/RDX pairs that make the condition evaluate taken
// (trigger) and not-taken (quiet) after `cmp rcx, rdx`.
func condOperands(c isa.Cond) (trigCx, trigDx, quietCx, quietDx uint64, ok bool) {
	switch c {
	case isa.CondE: // ZF=1
		return 5, 5, 5, 6, true
	case isa.CondNE:
		return 5, 6, 5, 5, true
	case isa.CondC: // CF=1: rcx < rdx
		return 3, 9, 9, 3, true
	case isa.CondNC:
		return 9, 3, 3, 9, true
	case isa.CondS: // SF=1: negative difference
		return 3, 9, 9, 3, true
	case isa.CondNS:
		return 9, 3, 3, 9, true
	case isa.CondLE: // ZF=1 or SF!=OF
		return 3, 9, 9, 3, true
	case isa.CondG:
		return 9, 3, 3, 9, true
	}
	return 0, 0, 0, 0, false
}

var condNames = map[isa.Cond]string{
	isa.CondE:  "JE/JZ",
	isa.CondNE: "JNE/JNZ",
	isa.CondC:  "JC/JB",
	isa.CondNC: "JNC/JAE",
	isa.CondS:  "JS",
	isa.CondNS: "JNS",
	isa.CondLE: "JLE",
	isa.CondG:  "JG",
}

// CondFamily measures the TET signal for every conditional-jump flavour the
// ISA implements, on the i7-7700. The paper verifies JE/JZ, JNE/JNZ and JC;
// this sweep covers the whole family. Each flavour boots its own machine
// from the same seed, so the flavours are independent cells.
func CondFamily(ex Exec, seed int64) ([]CondRow, error) {
	var cells []cell[CondRow]
	for c := isa.CondE; c <= isa.CondG; c++ {
		if _, _, _, _, ok := condOperands(c); !ok {
			continue
		}
		cells = append(cells, cell[CondRow]{key: condNames[c], model: cpu.I7_7700(),
			cfg: kernel.Config{KASLR: true}, seed: seed,
			run: func(k *kernel.Kernel) (CondRow, error) { return condRow(k, c) }})
	}
	return runCells(ex, "condfamily", seed, cells)
}

// condRow measures one conditional-jump flavour on k.
func condRow(k *kernel.Kernel, c isa.Cond) (CondRow, error) {
	trigCx, trigDx, quietCx, quietDx, ok := condOperands(c)
	if !ok {
		return CondRow{}, fmt.Errorf("condfamily: no operands for cond %d", c)
	}
	prog, err := condGadget(c)
	if err != nil {
		return CondRow{}, err
	}
	p := k.Machine().Pipe
	probe := func(cx, dx uint64) (uint64, error) {
		p.SetReg(isa.RBX, core.UnmappedVA)
		p.SetReg(isa.RCX, cx)
		p.SetReg(isa.RDX, dx)
		return core.ToTE(p, prog)
	}
	measure := func(cx, dx uint64) (uint64, error) {
		// De-train with quiet probes, then measure; median of 9.
		var samples []uint64
		for i := 0; i < 9; i++ {
			for j := 0; j < 2; j++ {
				if _, err := probe(quietCx, quietDx); err != nil {
					return 0, err
				}
			}
			t, err := probe(cx, dx)
			if err != nil {
				return 0, err
			}
			samples = append(samples, t)
		}
		return stats.MedianU64(samples), nil
	}
	// Warm up.
	for i := 0; i < 12; i++ {
		if _, err := probe(quietCx, quietDx); err != nil {
			return CondRow{}, err
		}
	}
	quiet, err := measure(quietCx, quietDx)
	if err != nil {
		return CondRow{}, err
	}
	trig, err := measure(trigCx, trigDx)
	if err != nil {
		return CondRow{}, err
	}
	return CondRow{
		Cond:      c,
		Name:      condNames[c],
		QuietToTE: quiet,
		TrigToTE:  trig,
		Delta:     int64(trig) - int64(quiet),
	}, nil
}

// condGadget is the Fig. 1a gadget with a parameterised condition code.
func condGadget(c isa.Cond) (*isa.Program, error) {
	b := isa.NewBuilder(kernel.UserCodeBase + 0x38000)
	b.Rdtsc(isa.RSI)
	b.Lfence()
	b.Xbegin("abort")
	b.LoadB(isa.RAX, isa.RBX, 0)
	b.Cmp(isa.RCX, isa.RDX)
	b.Jcc(c, "taken")
	b.Lfence()
	b.Jmp("end")
	b.Label("taken")
	b.Nop()
	b.Label("end")
	b.Xend()
	b.Halt()
	b.Label("abort")
	b.Rdtsc(isa.RDI)
	b.Halt()
	return b.Assemble()
}

// RenderCondFamily formats the sweep.
func RenderCondFamily(rows []CondRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§5: TET signal across the conditional-jump family (i7-7700)")
	fmt.Fprintf(&b, "%-10s %12s %12s %8s\n", "Jcc", "quiet ToTE", "trig ToTE", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %+8d\n", r.Name, r.QuietToTE, r.TrigToTE, r.Delta)
	}
	return b.String()
}
