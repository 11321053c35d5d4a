package fuzzgen

import (
	"fmt"
	"math/rand"

	"whisper/internal/bpu"
	"whisper/internal/cpu"
	"whisper/internal/mem"
	"whisper/internal/paging"
	"whisper/internal/pipeline"
	"whisper/internal/pmu"
	"whisper/internal/tlb"
)

// Env is the memory world generated programs run in: code, data and stack
// mapped user-visible at the fixed layout the generator emits addresses for.
// The same layout is installed on a fresh address space (NewEnv, for
// standalone interpreters and pipelines) or onto a reused cpu.Machine
// (InstallEnv, for the Reset/Pool paths).
type Env struct {
	AS   *paging.AddressSpace
	Phys *mem.Physical
}

// NewEnv builds a fresh environment with the difftest layout mapped.
func NewEnv() (Env, error) {
	phys := mem.NewPhysical()
	as := paging.NewAddressSpace(phys, paging.NewFrameAllocator(0x100000))
	if err := mapLayout(as); err != nil {
		return Env{}, err
	}
	return Env{AS: as, Phys: phys}, nil
}

// MustEnv is NewEnv that panics on error; the fixed layout cannot fail to map
// on a fresh address space.
func MustEnv() Env {
	e, err := NewEnv()
	if err != nil {
		panic(err)
	}
	return e
}

func mapLayout(as *paging.AddressSpace) error {
	for _, m := range []struct {
		va    uint64
		n     int
		flags uint64
	}{
		{CodeBase, CodePages, paging.FlagU},
		{DataBase, DataPages, paging.FlagU | paging.FlagW},
		{StackBase, StackPages, paging.FlagU | paging.FlagW},
	} {
		if _, err := as.MapRange(m.va, m.n, m.flags); err != nil {
			return fmt.Errorf("fuzzgen: map %#x: %w", m.va, err)
		}
	}
	return nil
}

// SeedData fills the data region from a deterministic stream.
func (e Env) SeedData(seed int64) {
	seedDataInto(e.AS, e.Phys, seed)
}

func seedDataInto(as *paging.AddressSpace, phys *mem.Physical, seed int64) {
	buf := make([]byte, DataRegionSize)
	rand.New(rand.NewSource(seed)).Read(buf)
	pa, _ := as.Translate(DataBase)
	phys.StoreBytes(pa, buf)
}

// DataBytes returns the data region's current contents.
func (e Env) DataBytes() []byte {
	pa, _ := e.AS.Translate(DataBase)
	return e.Phys.LoadBytes(pa, DataRegionSize)
}

// Model is the difftest CPU model: the paper's Kaby Lake part with
// measurement noise pinned off, so timing is a pure function of the program.
func Model() cpu.Model {
	m := cpu.I7_7700()
	m.Pipe.NoiseSigma = 0
	m.Pipe.InterruptProb = 0
	return m
}

// NewPipeline builds a deterministic out-of-order core over the environment,
// resourced exactly as a Machine built from Model() would be, and hands back
// the PMU it counts into.
func (e Env) NewPipeline() (*pipeline.Pipeline, *pmu.PMU, error) {
	hier := mem.NewHierarchy(e.Phys, Model().Hier)
	return e.newPipeline(hier, mem.NewLFB(10), 1)
}

// NewSMTPair builds two sibling cores sharing the cache hierarchy and fill
// buffers (the SMT surface) with private TLBs, predictors and PMUs — the
// smt.DualCore resource split, over this environment.
func (e Env) NewSMTPair() (*pipeline.Pipeline, *pipeline.Pipeline, error) {
	hier := mem.NewHierarchy(e.Phys, Model().Hier)
	lfb := mem.NewLFB(10)
	p0, _, err := e.newPipeline(hier, lfb, 1)
	if err != nil {
		return nil, nil, err
	}
	p1, _, err := e.newPipeline(hier, lfb, 2)
	if err != nil {
		return nil, nil, err
	}
	return p0, p1, nil
}

func (e Env) newPipeline(hier *mem.Hierarchy, lfb *mem.LFB, seed int64) (*pipeline.Pipeline, *pmu.PMU, error) {
	m := Model()
	bank := pmu.New()
	p, err := pipeline.New(m.Pipe, pipeline.Resources{
		Hier: hier,
		LFB:  lfb,
		AS:   e.AS,
		DTLB: tlb.New("dtlb", m.DTLB),
		ITLB: tlb.New("itlb", m.ITLB),
		BPU:  bpu.New(m.BPU),
		PMU:  bank,
		Rand: rand.New(rand.NewSource(seed)),
	})
	return p, bank, err
}

// InstallEnv maps the difftest layout into a (freshly Reset) machine's
// address space and seeds its data region — Env's world on a cpu.Machine.
func InstallEnv(m *cpu.Machine, memSeed int64) error {
	as := m.Pipe.AddressSpace()
	if err := mapLayout(as); err != nil {
		return err
	}
	seedDataInto(as, m.Phys, memSeed)
	return nil
}

// MachineDataBytes returns the data region's contents on a machine the
// layout was installed on.
func MachineDataBytes(m *cpu.Machine) []byte {
	as := m.Pipe.AddressSpace()
	pa, _ := as.Translate(DataBase)
	return m.Phys.LoadBytes(pa, DataRegionSize)
}
