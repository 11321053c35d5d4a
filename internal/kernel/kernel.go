// Package kernel models the operating-system state the attacks interact
// with: user/kernel address spaces, KASLR randomisation of the kernel image,
// KPTI's user-visible trampoline, the FLARE dummy-mapping defense, FGKASLR
// function shuffling, a victim with a secret, and the TLB/cache eviction
// primitives an unprivileged attacker uses between probes.
package kernel

import (
	"errors"
	"fmt"
	"sort"

	"whisper/internal/cpu"
	"whisper/internal/paging"
)

// Fixed virtual-memory layout (Linux-flavoured).
const (
	UserCodeBase  = 0x400000
	UserDataBase  = 0x600000
	UserStackBase = 0x7ff000
	UserEvictBase = 0x900000 // attacker's TLB-eviction working set
	UserCodePages = 128
	UserDataPages = 32
	UserStackPgs  = 4
	UserEvictPgs  = 128

	// The kernel image is randomised within this region with 2 MiB
	// alignment (§4.5): 512 candidate slots.
	KASLRRegionStart = 0xffffffff80000000
	SlotSize         = 2 << 20
	NumSlots         = 512
	ImageSlots       = 16 // 32 MiB kernel image, 2 MiB huge pages

	// KPTI keeps a trampoline mapped at this fixed offset from the kernel
	// base in the user page tables (§4.5).
	TrampolineOffset = 0xe00000

	// Victim secrets live in the direct map (address known per threat model).
	DirectMapBase = 0xffff888000000000
	SecretPages   = 2
)

// Eviction costs (cycles) charged analytically via Machine.Skip; see
// DESIGN.md §4. They model the large-buffer sweeps an unprivileged attacker
// performs between probes.
const (
	EvictTLBCost  = 300_000
	Evict4KCost   = 30_000
	EvictPTECost  = 2_000
	ContextSwitch = 3_000
)

// Config selects the deployed defenses.
type Config struct {
	KASLR   bool
	KPTI    bool
	FLARE   bool
	FGKASLR bool
	Docker  bool // run the attacker inside a container namespace
	// VERW enables the MDS software mitigation: microarchitectural buffers
	// (the LFB) are scrubbed on every context switch back to the attacker,
	// so stale victim data never survives to be sampled (§6.2).
	VERW bool
}

// Kernel is one booted OS instance on a machine.
type Kernel struct {
	m   *cpu.Machine
	cfg Config

	kernAS *paging.AddressSpace // full kernel view
	userAS *paging.AddressSpace // what the attacker's CR3 points at

	baseSlot  int
	kaslrBase uint64
	secretVA  uint64
	secretPA  uint64
	funcs     map[string]uint64
}

// KernelFunctions are the image symbols FGKASLR shuffles; offsets are from
// the (non-FGKASLR) image base.
var KernelFunctions = map[string]uint64{
	"startup_64":          0x000000,
	"entry_SYSCALL_64":    0xe00040,
	"commit_creds":        0x0b71a0,
	"prepare_kernel_cred": 0x0b7560,
	"native_write_cr4":    0x03a980,
	"do_syscall_64":       0xc00120,
}

// Boot installs the OS view on a machine and switches the attacker's
// pipeline into the (possibly KPTI-restricted) user address space.
func Boot(m *cpu.Machine, cfg Config) (*Kernel, error) {
	sp := m.Obs.StartSpan("kernel.boot", m.Pipe.Cycle())
	sp.Attr("cpu", m.Model.Name)
	sp.AttrBool("kaslr", cfg.KASLR)
	sp.AttrBool("kpti", cfg.KPTI)
	sp.AttrBool("flare", cfg.FLARE)
	sp.AttrBool("fgkaslr", cfg.FGKASLR)
	sp.AttrBool("docker", cfg.Docker)
	k, err := bootKernel(m, cfg)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End(m.Pipe.Cycle())
	return k, err
}

// Reboot resets the machine to the state NewMachine(m.Model, seed) would
// produce and boots a fresh kernel on it. A rebooted machine is bit-identical
// to a freshly constructed and booted one — the Reset rewinds physical
// memory, the frame allocator, caches, TLBs, the predictor, the PMU, and the
// RNG — but reuses the machine's backing storage, which is what makes pooled
// machine reuse (cpu.Pool) observationally safe.
func Reboot(m *cpu.Machine, cfg Config, seed int64) (*Kernel, error) {
	m.Reset(seed)
	return Boot(m, cfg)
}

// bootKernel is Boot's uninstrumented body.
func bootKernel(m *cpu.Machine, cfg Config) (*Kernel, error) {
	k := &Kernel{m: m, cfg: cfg, funcs: make(map[string]uint64)}

	k.kernAS = paging.NewAddressSpace(m.Phys, m.Alloc)
	if err := k.mapUser(k.kernAS); err != nil {
		return nil, err
	}

	// Pick the KASLR slot. Without KASLR the image sits at slot 0.
	k.baseSlot = 0
	if cfg.KASLR {
		k.baseSlot = m.Rand.Intn(NumSlots - ImageSlots)
	}
	k.kaslrBase = SlotVA(k.baseSlot)
	for i := 0; i < ImageSlots; i++ {
		pa := m.Alloc.Alloc2M()
		if err := k.kernAS.MapHuge(k.kaslrBase+uint64(i)*SlotSize, pa, paging.FlagG); err != nil {
			return nil, fmt.Errorf("kernel: map image: %w", err)
		}
	}

	// Victim secret in the direct map (supervisor-only).
	var err error
	k.secretPA, err = k.kernAS.MapRange(DirectMapBase, SecretPages, paging.FlagW)
	if err != nil {
		return nil, fmt.Errorf("kernel: map secret: %w", err)
	}
	k.secretVA = DirectMapBase

	// FGKASLR: shuffle function offsets within the image. The names go in
	// sorted order, not map order, so the layout is a function of the seed.
	names := make([]string, 0, len(KernelFunctions))
	for n := range KernelFunctions {
		names = append(names, n)
	}
	sort.Strings(names)
	offsets := make([]uint64, len(names))
	for i, n := range names {
		offsets[i] = KernelFunctions[n]
	}
	if cfg.FGKASLR {
		// Reshuffle until no function keeps its link-time offset: FGKASLR's
		// whole point is that no address survives.
		orig := append([]uint64(nil), offsets...)
		for {
			m.Rand.Shuffle(len(offsets), func(i, j int) {
				offsets[i], offsets[j] = offsets[j], offsets[i]
			})
			fixed := false
			for i := range offsets {
				if offsets[i] == orig[i] {
					fixed = true
					break
				}
			}
			if !fixed {
				break
			}
		}
	}
	for i, n := range names {
		k.funcs[n] = k.kaslrBase + offsets[i]
	}

	// KPTI: the attacker-visible address space drops kernel mappings except
	// the trampoline page.
	if cfg.KPTI {
		k.userAS = paging.NewAddressSpace(m.Phys, m.Alloc)
		if err := k.mapUser(k.userAS); err != nil {
			return nil, err
		}
		trampPA := m.Alloc.Alloc4K()
		if err := k.userAS.Map(k.kaslrBase+TrampolineOffset, trampPA, paging.FlagG); err != nil {
			return nil, fmt.Errorf("kernel: map trampoline: %w", err)
		}
	} else {
		k.userAS = k.kernAS
	}

	// FLARE: back every otherwise-unmapped probe target in the KASLR region
	// with a dummy 4 KiB page so mapping-detection probes see "mapped"
	// everywhere (the state-of-the-art defense of §4.5). The dummies are
	// ordinary (non-global) mappings — unlike the trampoline and the kernel
	// image, which must be global to survive KPTI's CR3 switches. That
	// asymmetry is what the TET FLARE-bypass probes (DESIGN.md §1).
	if cfg.FLARE {
		dummyPA := m.Alloc.Alloc4K()
		for s := 0; s < NumSlots; s++ {
			va := k.ProbeTarget(s)
			if _, mapped := k.userAS.Translate(va); mapped {
				continue
			}
			if err := k.userAS.Map(va&^uint64(paging.PageSize4K-1), dummyPA, 0); err != nil {
				return nil, fmt.Errorf("kernel: FLARE dummy: %w", err)
			}
		}
	}

	m.Pipe.SwitchAddressSpace(k.userAS)
	if cfg.Docker {
		// Container entry: namespace setup costs time but changes nothing
		// the probes can observe (§4.5, Docker experiment).
		m.Pipe.Skip(ContextSwitch * 10)
	}
	return k, nil
}

func (k *Kernel) mapUser(as *paging.AddressSpace) error {
	if _, err := as.MapRange(UserCodeBase, UserCodePages, paging.FlagU); err != nil {
		return fmt.Errorf("kernel: map code: %w", err)
	}
	if _, err := as.MapRange(UserDataBase, UserDataPages, paging.FlagU|paging.FlagW); err != nil {
		return fmt.Errorf("kernel: map data: %w", err)
	}
	if _, err := as.MapRange(UserStackBase, UserStackPgs, paging.FlagU|paging.FlagW); err != nil {
		return fmt.Errorf("kernel: map stack: %w", err)
	}
	if _, err := as.MapRange(UserEvictBase, UserEvictPgs, paging.FlagU|paging.FlagW); err != nil {
		return fmt.Errorf("kernel: map eviction buffer: %w", err)
	}
	return nil
}

// SlotVA returns the virtual address of KASLR candidate slot s.
func SlotVA(s int) uint64 { return KASLRRegionStart + uint64(s)*SlotSize }

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Machine returns the underlying machine.
func (k *Kernel) Machine() *cpu.Machine { return k.m }

// KASLRBase returns the true randomised kernel base (ground truth for
// evaluating the attack, never given to it).
func (k *Kernel) KASLRBase() uint64 { return k.kaslrBase }

// BaseSlot returns the true randomised slot index.
func (k *Kernel) BaseSlot() int { return k.baseSlot }

// ProbeTarget returns the address an attacker probes to test candidate slot
// s: the slot base, or the KPTI trampoline offset within it when KPTI is on.
func (k *Kernel) ProbeTarget(s int) uint64 {
	if k.cfg.KPTI {
		return SlotVA(s) + TrampolineOffset
	}
	return SlotVA(s)
}

// FunctionVA returns the runtime address of a kernel function, honouring
// FGKASLR shuffling. It errors on unknown symbols.
func (k *Kernel) FunctionVA(name string) (uint64, error) {
	va, ok := k.funcs[name]
	if !ok {
		return 0, errors.New("kernel: unknown function " + name)
	}
	return va, nil
}

// SecretVA returns the victim secret's (kernel) virtual address; the threat
// model (§4.2) grants the attacker knowledge of victim addresses.
func (k *Kernel) SecretVA() uint64 { return k.secretVA }

// WriteSecret places the victim's secret bytes.
func (k *Kernel) WriteSecret(data []byte) {
	if len(data) > SecretPages*paging.PageSize4K {
		panic("kernel: secret too large")
	}
	k.m.Phys.StoreBytes(k.secretPA, data)
}

// VictimTouch models one quantum of victim activity: the victim (running on
// the sibling context) loads its secret byte at offset i, moving the value
// through the line fill buffer — the state TET-ZBL samples.
func (k *Kernel) VictimTouch(i int) {
	pa := k.secretPA + uint64(i)
	val := uint64(k.m.Phys.LoadByte(pa))
	k.m.Hier.Flush(pa) // victim working set thrashes in and out of cache
	k.m.Hier.AccessData(pa)
	k.m.LFB.Record(pa, val)
	if k.cfg.VERW {
		// Context switch back to the attacker scrubs the fill buffers.
		k.m.LFB.Scrub()
	}
	k.m.Pipe.Skip(ContextSwitch)
}

// EvictTLB models the attacker's full TLB (and page-structure cache)
// eviction sweep between KASLR probes.
func (k *Kernel) EvictTLB() {
	k.m.DTLB.Flush(false)
	k.m.ITLB.Flush(false)
	k.m.Pipe.Skip(EvictTLBCost)
}

// EvictDTLB4K models a cheaper sweep that only cycles the 4 KiB DTLB
// partition (one touch per set), leaving 2 MiB entries resident — the
// FLARE-bypass primitive.
func (k *Kernel) EvictDTLB4K() {
	k.m.DTLB.Flush4K()
	k.m.Pipe.Skip(Evict4KCost)
}

// SyscallRoundTrip models a minimal syscall (e.g. getpid): under KPTI the
// entry and exit each write CR3, flushing non-global TLB entries while
// global ones (kernel image, trampoline — and notably *not* FLARE's dummy
// pages) survive. Without KPTI there is no CR3 write, only time.
func (k *Kernel) SyscallRoundTrip() {
	if k.cfg.KPTI {
		k.m.Pipe.SwitchAddressSpace(k.kernAS)
		k.m.Pipe.SwitchAddressSpace(k.userAS)
	}
	k.m.Pipe.Skip(ContextSwitch)
}

// EvictProbePTEs flushes the cached page-table lines feeding the probe
// target of slot s, forcing the next walk to DRAM.
func (k *Kernel) EvictProbePTEs(s int) {
	w := k.userAS.WalkVA(k.ProbeTarget(s))
	for _, pte := range w.PTEReads() {
		k.m.Hier.Flush(pte)
	}
	k.m.Pipe.Skip(EvictPTECost)
}

// UserAS returns the attacker-visible address space.
func (k *Kernel) UserAS() *paging.AddressSpace { return k.userAS }

// KernelAS returns the full kernel address space.
func (k *Kernel) KernelAS() *paging.AddressSpace { return k.kernAS }
