package interp_test

import (
	"bytes"
	"math/rand"
	"testing"

	"whisper/internal/cpu"
	"whisper/internal/fuzzgen"
	"whisper/internal/interp"
	"whisper/internal/isa"
)

// Differential testing: generated programs must leave identical architectural
// state on the sequential interpreter and the out-of-order pipeline, whatever
// speculation the pipeline performed along the way. Program generation, the
// memory layout and the engine comparison all live in internal/fuzzgen — the
// same code FuzzInterpVsPipeline drives — so a divergence found by either
// shows up here as a seed, and vice versa.

func seedStream(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func TestDifferentialPipelineVsInterpreter(t *testing.T) {
	const programs = 120
	for i := 0; i < programs; i++ {
		seed := int64(1000 + i)
		if err := fuzzgen.CheckInterpVsPipeline(seedStream(seed, 768)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialTransientBlocks hammers a second stream family; the
// generator's TSX and signal-handler sections make suppressed-fault transient
// windows (whose side effects must never become architectural) common here.
func TestDifferentialTransientBlocks(t *testing.T) {
	const programs = 100
	for i := 0; i < programs; i++ {
		seed := int64(5000 + i)
		if err := fuzzgen.CheckInterpVsPipeline(seedStream(seed, 768)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialResetReuse pins the machine-reuse contract the experiment
// pool relies on: running a program on a machine recycled with Machine.Reset
// is bit-identical — same architectural state, same cycle count — to running
// it on a freshly constructed pipeline, and a second Reset+run on the same
// machine reproduces the first exactly.
func TestDifferentialResetReuse(t *testing.T) {
	const programs = 40
	reused := cpu.MustMachine(fuzzgen.Model(), 1)
	for i := 0; i < programs; i++ {
		seed := int64(9000 + i)
		spec := fuzzgen.GenerateSpec(seedStream(seed, 768))

		// Reference world: fresh environment, fresh pipeline.
		ef := fuzzgen.MustEnv()
		ef.SeedData(spec.MemSeed)
		pf, err := ef.NewPipeline()
		if err != nil {
			t.Fatal(err)
		}
		pf.SetSignalHandler(spec.Handler)
		if _, err := pf.Exec(spec.Prog, 50_000_000); err != nil {
			t.Fatalf("seed %d: fresh: %v", seed, err)
		}
		wantMem := ef.DataBytes()

		// Reused world: one machine, Reset before every run, each program run
		// twice on it.
		for round := 0; round < 2; round++ {
			reused.Reset(1)
			if err := fuzzgen.InstallEnv(reused, spec.MemSeed); err != nil {
				t.Fatal(err)
			}
			reused.Pipe.SetSignalHandler(spec.Handler)
			if _, err := reused.Pipe.Exec(spec.Prog, 50_000_000); err != nil {
				t.Fatalf("seed %d round %d: reused: %v", seed, round, err)
			}
			if got, want := reused.Pipe.Cycle(), pf.Cycle(); got != want {
				t.Fatalf("seed %d round %d: cycles %d, fresh %d", seed, round, got, want)
			}
			for _, r := range fuzzgen.CompareRegs() {
				if got, want := reused.Pipe.Reg(r), pf.Reg(r); got != want {
					t.Fatalf("seed %d round %d: reg %v: reused %#x, fresh %#x",
						seed, round, r, got, want)
				}
			}
			if !bytes.Equal(fuzzgen.MachineDataBytes(reused), wantMem) {
				t.Fatalf("seed %d round %d: memory diverges", seed, round)
			}
		}
	}
}

func TestInterpFaultPaths(t *testing.T) {
	e := fuzzgen.MustEnv()
	m := interp.New(e.AS)
	// Unsuppressed fault errors out.
	p := isa.NewBuilder(fuzzgen.CodeBase).
		MovImm(isa.RBX, 0x40000000).
		LoadQ(isa.RAX, isa.RBX, 0).
		Halt().
		MustAssemble()
	if err := m.Run(p, 1000); err == nil {
		t.Fatal("unsuppressed fault did not error")
	}
	// Signal handler suppresses.
	p2 := isa.NewBuilder(fuzzgen.CodeBase).
		MovImm(isa.RBX, 0x40000000).
		LoadQ(isa.RAX, isa.RBX, 0).
		Halt().
		Label("h").
		MovImm(isa.RCX, 9).
		Halt().
		MustAssemble()
	m2 := interp.New(e.AS)
	m2.SetSignalHandler(3)
	if err := m2.Run(p2, 1000); err != nil {
		t.Fatal(err)
	}
	if m2.Regs[isa.RCX] != 9 {
		t.Fatal("handler did not run")
	}
	// TSX abort restores registers.
	p3 := isa.NewBuilder(fuzzgen.CodeBase).
		MovImm(isa.RAX, 5).
		Xbegin("abort").
		MovImm(isa.RAX, 6).
		MovImm(isa.RBX, 0x40000000).
		LoadQ(isa.RCX, isa.RBX, 0).
		Xend().
		Halt().
		Label("abort").
		MovImm(isa.RDX, 1).
		Halt().
		MustAssemble()
	m3 := interp.New(e.AS)
	if err := m3.Run(p3, 1000); err != nil {
		t.Fatal(err)
	}
	if m3.Regs[isa.RAX] != 5 || m3.Regs[isa.RDX] != 1 {
		t.Fatalf("txn rollback wrong: rax=%d rdx=%d", m3.Regs[isa.RAX], m3.Regs[isa.RDX])
	}
	// Write to read-only page faults.
	ro := isa.NewBuilder(fuzzgen.CodeBase).
		MovImm(isa.RBX, fuzzgen.CodeBase). // code is mapped read-only user
		StoreQ(isa.RBX, 0, isa.RAX).
		Halt().
		MustAssemble()
	if err := interp.New(e.AS).Run(ro, 1000); err == nil {
		t.Fatal("read-only store did not fault")
	}
}

func TestInterpBudget(t *testing.T) {
	e := fuzzgen.MustEnv()
	p := isa.NewBuilder(fuzzgen.CodeBase).Label("x").Jmp("x").MustAssemble()
	if err := interp.New(e.AS).Run(p, 100); err != interp.ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
