package kernel

import (
	"testing"

	"whisper/internal/cpu"
	"whisper/internal/isa"
)

func boot(t *testing.T, cfg Config, seed int64) *Kernel {
	t.Helper()
	m := cpu.MustMachine(cpu.I9_10980XE(), seed)
	k, err := Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootMapsUserRegions(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 1)
	for _, va := range []uint64{UserCodeBase, UserDataBase, UserStackBase} {
		if _, ok := k.UserAS().Translate(va); !ok {
			t.Errorf("user region %#x unmapped", va)
		}
	}
}

func TestKASLRRandomisesBase(t *testing.T) {
	bases := map[uint64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		k := boot(t, Config{KASLR: true}, seed)
		b := k.KASLRBase()
		if b < KASLRRegionStart || b >= SlotVA(NumSlots) {
			t.Fatalf("base %#x outside region", b)
		}
		if b%SlotSize != 0 {
			t.Fatalf("base %#x not slot-aligned", b)
		}
		bases[b] = true
	}
	if len(bases) < 4 {
		t.Fatalf("only %d distinct bases over 8 seeds", len(bases))
	}
	if k := boot(t, Config{}, 3); k.KASLRBase() != KASLRRegionStart {
		t.Error("KASLR off should pin base to region start")
	}
}

func TestKernelImageSupervisorOnly(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 2)
	w := k.KernelAS().WalkVA(k.KASLRBase())
	if !w.Present || !w.Huge {
		t.Fatalf("image walk = %+v", w)
	}
	if w.User() {
		t.Fatal("kernel image user-accessible")
	}
}

func TestKPTIHidesKernelButKeepsTrampoline(t *testing.T) {
	k := boot(t, Config{KASLR: true, KPTI: true}, 3)
	if _, ok := k.UserAS().Translate(k.KASLRBase()); ok {
		t.Fatal("kernel base visible under KPTI")
	}
	if _, ok := k.UserAS().Translate(k.SecretVA()); ok {
		t.Fatal("direct map visible under KPTI")
	}
	if _, ok := k.UserAS().Translate(k.KASLRBase() + TrampolineOffset); !ok {
		t.Fatal("trampoline missing under KPTI")
	}
	// The probe target for the true slot is exactly the trampoline.
	if got := k.ProbeTarget(k.BaseSlot()); got != k.KASLRBase()+TrampolineOffset {
		t.Fatalf("ProbeTarget = %#x", got)
	}
}

func TestNoKPTIKernelMappedSupervisor(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 4)
	if k.UserAS() != k.KernelAS() {
		t.Fatal("without KPTI user and kernel AS should be shared")
	}
	if _, ok := k.UserAS().Translate(k.SecretVA()); !ok {
		t.Fatal("direct map should be present (supervisor) without KPTI")
	}
}

func TestFLAREMapsAllProbeTargets(t *testing.T) {
	for _, kpti := range []bool{false, true} {
		k := boot(t, Config{KASLR: true, KPTI: kpti, FLARE: true}, 5)
		for s := 0; s < NumSlots; s++ {
			if _, ok := k.UserAS().Translate(k.ProbeTarget(s)); !ok {
				t.Fatalf("kpti=%v: probe target of slot %d unmapped under FLARE", kpti, s)
			}
		}
		// FLARE dummies are 4K; the real image (no KPTI) is 2M.
		if !kpti {
			real := k.UserAS().WalkVA(k.ProbeTarget(k.BaseSlot()))
			miss := k.UserAS().WalkVA(k.ProbeTarget((k.BaseSlot() + ImageSlots + 3) % NumSlots))
			if !real.Huge || miss.Huge {
				t.Fatalf("kpti=%v: FLARE page sizes wrong: real.Huge=%v dummy.Huge=%v",
					kpti, real.Huge, miss.Huge)
			}
		}
	}
}

func TestFGKASLRShufflesFunctions(t *testing.T) {
	plain := boot(t, Config{KASLR: true}, 6)
	shuffled := boot(t, Config{KASLR: true, FGKASLR: true}, 6)
	// Same seed → same base; FGKASLR must still move functions.
	if plain.KASLRBase() != shuffled.KASLRBase() {
		t.Skip("seeds diverged; cannot compare")
	}
	moved := 0
	for name := range KernelFunctions {
		a, err := plain.FunctionVA(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shuffled.FunctionVA(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			moved++
		}
	}
	if moved < 2 {
		t.Fatalf("FGKASLR moved only %d functions", moved)
	}
	if _, err := plain.FunctionVA("no_such_symbol"); err == nil {
		t.Fatal("unknown symbol resolved")
	}
	// The shuffled layout is a function of the seed alone.
	for i := 0; i < 10; i++ {
		again := boot(t, Config{KASLR: true, FGKASLR: true}, 6)
		for name := range KernelFunctions {
			want, _ := shuffled.FunctionVA(name)
			if got, _ := again.FunctionVA(name); got != want {
				t.Fatalf("boot %d: %s at %#x, first boot put it at %#x", i+2, name, got, want)
			}
		}
	}
}

func TestSecretWriteAndVictimTouch(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 7)
	k.WriteSecret([]byte("TOPSECRET"))
	pa, ok := k.KernelAS().Translate(k.SecretVA())
	if !ok {
		t.Fatal("secret unmapped in kernel AS")
	}
	if got := string(k.Machine().Phys.LoadBytes(pa, 9)); got != "TOPSECRET" {
		t.Fatalf("secret = %q", got)
	}
	k.VictimTouch(3)
	stale, okLFB := k.Machine().LFB.StaleData()
	if !okLFB || stale != 'S' {
		t.Fatalf("LFB stale = (%c, %v), want S", rune(stale), okLFB)
	}
}

func TestEvictionPrimitives(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 8)
	m := k.Machine()

	// Warm a TLB entry via a pipeline load.
	p := isa.NewBuilder(UserCodeBase).
		MovImm(isa.RBX, UserDataBase).
		LoadQ(isa.RAX, isa.RBX, 0).
		Halt().
		MustAssemble()
	if _, err := m.Pipe.Exec(p, 100000); err != nil {
		t.Fatal(err)
	}
	if m.DTLB.ValidEntries() == 0 {
		t.Fatal("no DTLB entries after load")
	}
	c0 := m.Pipe.Cycle()
	k.EvictTLB()
	if m.DTLB.ValidEntries() != 0 {
		t.Fatal("EvictTLB left entries")
	}
	if m.Pipe.Cycle()-c0 != EvictTLBCost {
		t.Fatalf("EvictTLB cost = %d", m.Pipe.Cycle()-c0)
	}
}

func TestEvict4KSpares2M(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 9)
	m := k.Machine()
	// Insert a 2M and a 4K entry directly.
	m.DTLB.Insert(k.KernelAS().WalkVA(k.KASLRBase()))
	m.DTLB.Insert(k.UserAS().WalkVA(UserDataBase))
	k.EvictDTLB4K()
	if _, ok := m.DTLB.Lookup(k.KASLRBase()); !ok {
		t.Fatal("2M entry evicted by 4K sweep")
	}
	if _, ok := m.DTLB.Lookup(UserDataBase); ok {
		t.Fatal("4K entry survived 4K sweep")
	}
}

func TestEvictProbePTEs(t *testing.T) {
	k := boot(t, Config{KASLR: true}, 10)
	m := k.Machine()
	s := k.BaseSlot()
	w := k.UserAS().WalkVA(k.ProbeTarget(s))
	for _, pte := range w.PTEReads() {
		m.Hier.AccessData(pte) // warm
	}
	k.EvictProbePTEs(s)
	for _, pte := range w.PTEReads() {
		if m.Hier.L1D.Contains(pte) {
			t.Fatalf("PTE line %#x still cached", pte)
		}
	}
}

func TestProbeTargetsDistinct(t *testing.T) {
	k := boot(t, Config{KASLR: true, KPTI: true}, 11)
	seen := map[uint64]bool{}
	for s := 0; s < NumSlots; s++ {
		va := k.ProbeTarget(s)
		if seen[va] {
			t.Fatalf("duplicate probe target %#x", va)
		}
		seen[va] = true
	}
	// Exactly one probe target translates under KPTI: the true slot's.
	mappedCount := 0
	for s := 0; s < NumSlots; s++ {
		if _, ok := k.UserAS().Translate(k.ProbeTarget(s)); ok {
			mappedCount++
		}
	}
	if mappedCount != 1 {
		t.Fatalf("mapped probe targets = %d, want 1", mappedCount)
	}
}

func TestDockerBootWorks(t *testing.T) {
	k := boot(t, Config{KASLR: true, KPTI: true, Docker: true}, 12)
	if k.KASLRBase() == 0 {
		t.Fatal("docker boot broken")
	}
}
