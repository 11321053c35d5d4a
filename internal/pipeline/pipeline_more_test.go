package pipeline

import (
	"slices"
	"testing"

	"whisper/internal/isa"
	"whisper/internal/pmu"
)

func TestTSXCommitsWithoutFault(t *testing.T) {
	e := newEnv(t, nil)
	p := b().
		MovImm(isa.RAX, 1).
		Xbegin("abort").
		MovImm(isa.RAX, 2).
		Xend().
		Halt().
		Label("abort").
		MovImm(isa.RAX, 99).
		Halt().
		MustAssemble()
	res := e.run(p)
	if res.Faults != 0 {
		t.Fatalf("faults = %d", res.Faults)
	}
	if got := e.p.Reg(isa.RAX); got != 2 {
		t.Fatalf("rax = %d, want committed 2", got)
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	e := newEnv(t, nil)
	timeLoad := func(prefetch bool) uint64 {
		bb := b().MovImm(isa.RBX, dataBase+0x800)
		bb.Clflush(isa.RBX, 0).Mfence()
		if prefetch {
			bb.Prefetch(isa.RBX, 0).Mfence()
		}
		bb.Rdtsc(isa.RCX).
			Lfence().
			LoadQ(isa.RAX, isa.RBX, 0).
			Lfence().
			Rdtsc(isa.RDX).
			Halt()
		e.run(bb.MustAssemble())
		return e.p.Reg(isa.RDX) - e.p.Reg(isa.RCX)
	}
	cold := timeLoad(false)
	warm := timeLoad(true)
	if warm+50 >= cold {
		t.Fatalf("prefetch did not warm the line: cold=%d warm=%d", cold, warm)
	}
}

func TestStorePermissionFault(t *testing.T) {
	e := newEnv(t, nil)
	// Store to the supervisor kernel page must fault (suppressed here).
	bb := b().
		MovImm(isa.RBX, kernVA).
		MovImm(isa.RAX, 0x41).
		StoreQ(isa.RBX, 0, isa.RAX).
		Halt().
		Label("handler").
		MovImm(isa.RCX, 7).
		Halt()
	p := bb.MustAssemble()
	e.p.SetSignalHandler(4)
	defer e.p.SetSignalHandler(-1)
	res := e.run(p)
	if res.Faults != 1 {
		t.Fatalf("faults = %d", res.Faults)
	}
	if e.p.Reg(isa.RCX) != 7 {
		t.Fatal("handler did not run")
	}
	// The store must not have reached memory.
	if got := e.phys.Read(e.kpa(kernBase), 8); got == 0x41 {
		t.Fatal("supervisor store committed")
	}
}

func TestStoreToReadOnlyPageFaults(t *testing.T) {
	e := newEnv(t, nil)
	// Code pages are mapped user read-only.
	bb := b().
		MovImm(isa.RBX, codeBase).
		MovImm(isa.RAX, 0x41).
		StoreQ(isa.RBX, 0, isa.RAX).
		Halt().
		Label("handler").
		MovImm(isa.RCX, 7).
		Halt()
	p := bb.MustAssemble()
	e.p.SetSignalHandler(4)
	defer e.p.SetSignalHandler(-1)
	res := e.run(p)
	if res.Faults != 1 || e.p.Reg(isa.RCX) != 7 {
		t.Fatalf("read-only store: faults=%d rcx=%d", res.Faults, e.p.Reg(isa.RCX))
	}
}

func TestInvisibleSpeculationSuppressesTransientFills(t *testing.T) {
	run := func(invisible bool) bool {
		e := newEnv(t, func(c *Config) { c.InvisibleSpeculation = invisible })
		// Transient gadget: faulting load gates a dependent data load whose
		// line should (or should not) persist in the cache.
		probeVA := uint64(dataBase + 0xc00)
		probePA := e.kpa(probeVA)
		e.p.res.Hier.Flush(probePA)
		bb := b().
			MovImm(isa.RBX, unmappedVA).
			MovImm(isa.R10, int64(probeVA)).
			LoadB(isa.RAX, isa.RBX, 0). // opens the shadow
			AndImm(isa.RAX, isa.RAX, 0).
			Add(isa.R10, isa.R10, isa.RAX).
			LoadB(isa.RCX, isa.R10, 0). // transient fill under shadow
			Halt().
			Label("handler").
			Halt()
		p := bb.MustAssemble()
		e.p.SetSignalHandler(7)
		defer e.p.SetSignalHandler(-1)
		if _, err := e.p.Exec(p, 100000); err != nil {
			t.Fatal(err)
		}
		return e.p.res.Hier.L1D.Contains(probePA) ||
			e.p.res.Hier.L2.Contains(probePA) ||
			e.p.res.Hier.L3.Contains(probePA)
	}
	if !run(false) {
		t.Fatal("baseline: transient fill missing (gadget broken)")
	}
	if run(true) {
		t.Fatal("invisible speculation leaked a transient fill")
	}
}

func TestPMUCyclesMatchResultCycles(t *testing.T) {
	// fastForward must keep the PMU cycle counter exact.
	e := newEnv(t, nil)
	bb := b().
		MovImm(isa.RBX, unmappedVA).
		LoadB(isa.RAX, isa.RBX, 0). // fault → signal delivery (fast-forwarded)
		Halt().
		Label("handler").
		NopSled(4).
		Halt()
	p := bb.MustAssemble()
	e.p.SetSignalHandler(3)
	defer e.p.SetSignalHandler(-1)
	before := e.pm.Read(pmu.CyclesTotal)
	res := e.run(p)
	if got := e.pm.Read(pmu.CyclesTotal) - before; got != res.Cycles {
		t.Fatalf("PMU cycles %d != result cycles %d", got, res.Cycles)
	}
	if res.Cycles < 12000 {
		t.Fatalf("signal delivery not charged: %d cycles", res.Cycles)
	}
}

func TestDSBWarmupSpeedsFetch(t *testing.T) {
	e := newEnv(t, nil)
	p := b().NopSled(40).Halt().MustAssemble()
	run := func() (mite uint64) {
		before := e.pm.Read(pmu.IdqMsMiteUops)
		e.run(p)
		return e.pm.Read(pmu.IdqMsMiteUops) - before
	}
	first := run()
	second := run()
	if first == 0 {
		t.Fatal("cold run delivered nothing through MITE")
	}
	if second >= first {
		t.Fatalf("DSB warmup ineffective: MITE uops %d then %d", first, second)
	}
}

func TestSwitchAddressSpaceFlushesNonGlobalTLB(t *testing.T) {
	e := newEnv(t, nil)
	// Warm a (non-global) translation.
	p := b().
		MovImm(isa.RBX, dataBase).
		LoadQ(isa.RAX, isa.RBX, 0).
		Halt().
		MustAssemble()
	e.run(p)
	if _, ok := e.p.res.DTLB.Lookup(dataBase); !ok {
		t.Fatal("translation not cached")
	}
	e.p.SwitchAddressSpace(e.as) // CR3 write to the same tables
	if _, ok := e.p.res.DTLB.Lookup(dataBase); ok {
		t.Fatal("non-global entry survived CR3 write")
	}
}

func TestNestedCallRet(t *testing.T) {
	e := newEnv(t, nil)
	p := b().
		MovImm(isa.RSP, stackBase+0x800).
		MovImm(isa.RAX, 0).
		Call("outer").
		AddImm(isa.RAX, isa.RAX, 100).
		Halt().
		Label("outer").
		AddImm(isa.RAX, isa.RAX, 10).
		Call("inner").
		AddImm(isa.RAX, isa.RAX, 10).
		Ret().
		Label("inner").
		AddImm(isa.RAX, isa.RAX, 1).
		Ret().
		MustAssemble()
	e.run(p)
	if got := e.p.Reg(isa.RAX); got != 121 {
		t.Fatalf("rax = %d, want 121", got)
	}
	if got := e.p.Reg(isa.RSP); got != stackBase+0x800 {
		t.Fatalf("rsp = %#x", got)
	}
}

func TestClflushBlocksStoreForwarding(t *testing.T) {
	e := newEnv(t, nil)
	run := func(withFlush bool) (uint64, uint64) {
		bb := b().
			MovImm(isa.RBX, dataBase+0x40).
			MovImm(isa.RAX, 0x77).
			StoreQ(isa.RBX, 0, isa.RAX)
		if withFlush {
			bb.Clflush(isa.RBX, 0)
		}
		bb.Rdtsc(isa.RCX).
			LoadQ(isa.RDX, isa.RBX, 0).
			Lfence().
			Rdtsc(isa.RSI).
			Halt()
		p := bb.MustAssemble()
		e.run(p) // warm code and translations
		e.run(p)
		return e.p.Reg(isa.RSI) - e.p.Reg(isa.RCX), e.p.Reg(isa.RDX)
	}
	fast, v1 := run(false)
	slow, v2 := run(true)
	if v1 != 0x77 || v2 != 0x77 {
		t.Fatalf("values wrong: %#x %#x", v1, v2)
	}
	if slow <= fast {
		t.Fatalf("clflush did not block forwarding: fast=%d slow=%d", fast, slow)
	}
}

func TestByteStoreDoesNotClobberNeighbours(t *testing.T) {
	e := newEnv(t, nil)
	e.writeData(dataBase+0x100, 8, 0x1111111111111111)
	p := b().
		MovImm(isa.RBX, dataBase+0x100).
		MovImm(isa.RAX, 0xFF).
		Store(isa.RBX, 2, isa.RAX, 1). // single byte at +2
		Halt().
		MustAssemble()
	e.run(p)
	if got := e.phys.Read(e.kpa(dataBase+0x100), 8); got != 0x1111_1111_11FF_1111 {
		t.Fatalf("memory = %#x", got)
	}
}

func TestMultipleFaultsCounted(t *testing.T) {
	e := newEnv(t, nil)
	bb := b().
		MovImm(isa.RBX, unmappedVA).
		MovImm(isa.R10, 0)
	bb.Label("again").
		LoadB(isa.RAX, isa.RBX, 0).
		Halt() // unreachable
	bb.Label("handler").
		AddImm(isa.R10, isa.R10, 1).
		CmpImm(isa.R10, 3).
		Jcc(isa.CondNE, "again").
		Halt()
	p := bb.MustAssemble()
	e.p.SetSignalHandler(4)
	defer e.p.SetSignalHandler(-1)
	res := e.run(p)
	if res.Faults != 3 {
		t.Fatalf("faults = %d, want 3", res.Faults)
	}
	if e.p.Reg(isa.R10) != 3 {
		t.Fatalf("handler count = %d", e.p.Reg(isa.R10))
	}
}

func TestZeroNoiseDeterminism(t *testing.T) {
	e := newEnv(t, nil)
	p := b().
		MovImm(isa.RBX, dataBase).
		Rdtsc(isa.RSI).
		Lfence().
		LoadQ(isa.RAX, isa.RBX, 0).
		Lfence().
		Rdtsc(isa.RDI).
		Halt().
		MustAssemble()
	e.run(p) // warm everything
	var times []uint64
	for i := 0; i < 5; i++ {
		e.run(p)
		times = append(times, e.p.Reg(isa.RDI)-e.p.Reg(isa.RSI))
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[0] {
			t.Fatalf("non-deterministic timing with zero noise: %v", times)
		}
	}
}

func TestITLBWalkCounted(t *testing.T) {
	e := newEnv(t, nil)
	before := e.pm.Read(pmu.ItlbMissesWalkActive)
	e.run(b().Nop().Halt().MustAssemble())
	if e.pm.Read(pmu.ItlbMissesWalkActive) == before {
		t.Fatal("cold instruction fetch did not charge an ITLB walk")
	}
}

func TestResourceStallOnROBPressure(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.ROBSize = 8 // tiny ROB forces allocator stalls
	})
	bb := b().MovImm(isa.RBX, dataBase).Clflush(isa.RBX, 0).Mfence()
	bb.LoadQ(isa.RAX, isa.RBX, 0) // DRAM load blocks retirement
	bb.NopSled(40)
	bb.Halt()
	before := e.pm.Read(pmu.ResourceStallsAny)
	e.run(bb.MustAssemble())
	if e.pm.Read(pmu.ResourceStallsAny) == before {
		t.Fatal("full ROB did not produce resource stalls")
	}
}

func TestMachineClearsCounted(t *testing.T) {
	e := newEnv(t, nil)
	bb := b().
		MovImm(isa.RBX, unmappedVA).
		LoadB(isa.RAX, isa.RBX, 0).
		Halt().
		Label("h").
		Halt()
	p := bb.MustAssemble()
	e.p.SetSignalHandler(3)
	defer e.p.SetSignalHandler(-1)
	before := e.pm.Read(pmu.MachineClearsCount)
	e.run(p)
	if e.pm.Read(pmu.MachineClearsCount) != before+1 {
		t.Fatal("machine clear not counted")
	}
}

func TestAccessorsAndStepAPI(t *testing.T) {
	e := newEnv(t, nil)
	if e.p.AddressSpace() != e.as {
		t.Fatal("AddressSpace accessor wrong")
	}
	p := b().MovImm(isa.RAX, 3).Halt().MustAssemble()
	// Drive via the step API.
	e.p.BeginExec(p, 10_000)
	steps := 0
	for {
		done, err := e.p.StepCycle()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if e.p.Reg(isa.RAX) != 3 {
		t.Fatal("step-driven run wrong result")
	}
	res := e.p.ExecResult()
	if !res.Halted || res.Cycles == 0 || uint64(steps) < res.Cycles {
		t.Fatalf("ExecResult = %+v after %d steps", res, steps)
	}
	if e.p.Faults() != 0 {
		t.Fatal("spurious faults")
	}
	if len(e.p.Clears()) != 0 {
		t.Fatal("spurious clears")
	}
	// StepCycle after halt stays done.
	if done, err := e.p.StepCycle(); err != nil || !done {
		t.Fatalf("post-halt StepCycle = (%v, %v)", done, err)
	}
}

func TestStepCycleBudget(t *testing.T) {
	e := newEnv(t, nil)
	p := b().Label("x").Jmp("x").MustAssemble()
	e.p.BeginExec(p, 50)
	var err error
	for i := 0; i < 200; i++ {
		if _, err = e.p.StepCycle(); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("budget never enforced")
	}
}

func TestInjectStallFreezesCore(t *testing.T) {
	e := newEnv(t, nil)
	p := b().MovImm(isa.RAX, 1).Halt().MustAssemble()
	run := func(stall uint64) uint64 {
		e.p.BeginExec(p, 100_000)
		if stall > 0 {
			e.p.InjectStall(stall)
		}
		for {
			done, err := e.p.StepCycle()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		return e.p.ExecResult().Cycles
	}
	run(0) // warm code and translations
	base := run(0)
	stalled := run(500)
	if stalled < base+490 {
		t.Fatalf("InjectStall ineffective: base=%d stalled=%d", base, stalled)
	}
}

// TestFullIDQSpinSkipMatchesStepping pins skip-ahead across a fetch spin:
// an lfence behind a DRAM load blocks issue, fetch runs into the full IDQ,
// and Exec fast-forwards what StepCycle runs cycle by cycle. Both must leave
// the same PMU bank and the same DSB — lines, LRU ticks and the last-hit
// memo. One case spins on a DSB hit, which bumps the line's LRU tick every
// cycle; the other on the MITE path right after a resteer, with miteLeft > 0.
func TestFullIDQSpinSkipMatchesStepping(t *testing.T) {
	spinBody := func(bb *isa.Builder) *isa.Program {
		return bb.MovImm(isa.RBX, dataBase).
			Clflush(isa.RBX, 0).
			Mfence().
			LoadQ(isa.RAX, isa.RBX, 0).
			Lfence().
			NopSled(100).
			Halt().
			MustAssemble()
	}
	for _, c := range []struct {
		name    string
		mite    bool
		prog    *isa.Program
		handler int
	}{
		{"DSB hit", false, spinBody(b()), -1},
		{
			// A signal-suppressed fault resteers fetch to the handler at
			// index 3, where spinBody starts; a MITE window longer than
			// the IDQ keeps the spin on MITE.
			"MITE after resteer", true,
			spinBody(b().MovImm(isa.R8, unmappedVA).LoadQ(isa.RCX, isa.R8, 0).Halt()),
			3,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			newCore := func() *env {
				e := newEnv(t, func(cfg *Config) { cfg.MITEResteer = 256 })
				e.p.SetSignalHandler(c.handler)
				return e
			}
			// Two runs each: the first warms the icache, so in the second
			// only the flushed load is slow and the IDQ fills behind it.
			fast, stepped := newCore(), newCore()
			spins := 0
			for run := 0; run < 2; run++ {
				fast.run(c.prog)
				stepped.p.BeginExec(c.prog, 2_000_000)
				for {
					full := stepped.p.idq.Len() == stepped.p.cfg.IDQSize
					fw := stepped.pm.Read(pmu.IcFw32)
					done, err := stepped.p.StepCycle()
					if err != nil {
						t.Fatal(err)
					}
					if done {
						break
					}
					// A spin cycle: fetch ran and the IDQ stayed full.
					if full && stepped.p.idq.Len() == stepped.p.cfg.IDQSize && stepped.pm.Read(pmu.IcFw32) > fw {
						if (stepped.p.miteLeft > 0) != c.mite {
							t.Fatalf("spin at cycle %d with miteLeft %d", stepped.p.cycle, stepped.p.miteLeft)
						}
						spins++
					}
				}
			}
			if spins < 50 {
				t.Fatalf("only %d full-IDQ spin cycles; the program no longer exercises the skip", spins)
			}

			if fast.p.Cycle() != stepped.p.Cycle() {
				t.Fatalf("cycle %d (Exec) vs %d (stepped)", fast.p.Cycle(), stepped.p.Cycle())
			}
			if got, want := fast.pm.Snapshot(), stepped.pm.Snapshot(); got != want {
				for ev := range got {
					if got[ev] != want[ev] {
						t.Errorf("PMU %v: %d (Exec) vs %d (stepped)", pmu.Event(ev), got[ev], want[ev])
					}
				}
			}
			fd, sd := fast.p.dsb, stepped.p.dsb
			if !slices.Equal(fd.lines, sd.lines) || fd.tick != sd.tick || fd.last != sd.last {
				t.Errorf("DSB diverges:\n Exec    %+v tick %d last %d\n stepped %+v tick %d last %d",
					fd.lines, fd.tick, fd.last, sd.lines, sd.tick, sd.last)
			}
		})
	}
}
