// Package snapshot checkpoints full machine state — pipeline, predictors,
// caches, TLBs, PMU, physical memory, page tables, and the RNG cursor — and
// forks it into pooled machines.
//
// The mechanism is capture-once / fork-many: Capture clones a quiescent
// machine into a frozen replica that is never executed again, and every Fork
// copies the frozen state into a (preferably pooled) target machine. Because
// cpu.Machine.CopyStateFrom restores each structure into the target's
// existing backing storage, a steady-state Fork allocates nothing, and the
// forked machine is bit-identical to the captured one: running any program on
// a fork produces exactly the cycles, PMU counts, and architectural results
// the source machine would have produced (internal/fuzzgen's
// FuzzSnapshotRestore pins it).
//
// Sweep cells do not fork: internal/experiments boots every cell on a pooled
// machine. Each cell seeds its machine from its own identity, so few cells
// share a boot, and one capture costs more than ten reboots. The package
// serves callers that replay one warm machine many times.
package snapshot

import (
	"errors"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/mem"
)

// Snapshot is one immutable checkpoint. It may be forked concurrently; the
// frozen replica inside is never mutated after Capture returns.
type Snapshot struct {
	model    cpu.Model
	frozen   *cpu.Machine
	hierImg  *mem.HierImage // frozen.Hier's valid lines, replayed per fork
	userRoot uint64         // page-table root the captured pipeline was walking
	kern     kernel.State
	hasKern  bool
}

// Stats is the shape of the removed warm-state memo's counters, kept for
// readers of experiments.SnapshotMemoStats.
type Stats struct {
	Hits          uint64
	Misses        uint64
	ResidentBytes int64
}

// Capture checkpoints a quiescent machine (between Execs). The machine is
// not modified and can keep running; the snapshot holds a frozen replica —
// a minimal machine (cpu.NewFrozenMachine) that is never executed — plus a
// compact valid-line image of the cache hierarchy, both retained for the
// snapshot's lifetime.
func Capture(m *cpu.Machine) (*Snapshot, error) {
	frozen, err := cpu.NewFrozenMachine(m.Model)
	if err != nil {
		return nil, err
	}
	if err := frozen.CaptureStateFrom(m); err != nil {
		return nil, err
	}
	root := m.Pipe.AddressSpace().Root()
	frozen.Pipe.SetAddressSpace(frozen.BindAddressSpace(0, root))
	return &Snapshot{model: m.Model, frozen: frozen, userRoot: root,
		hierImg: m.Hier.Image()}, nil
}

// CaptureKernel checkpoints a booted kernel and its machine together, so
// forks come back as ready-to-use kernels (ForkKernel).
func CaptureKernel(k *kernel.Kernel) (*Snapshot, error) {
	s, err := Capture(k.Machine())
	if err != nil {
		return nil, err
	}
	s.kern = k.CaptureState()
	s.hasKern = true
	return s, nil
}

// Fork restores the snapshot into a machine drawn from pool (or freshly
// built when the pool has none parked for the model). In steady state —
// pool hit, target freelist warm — the fork performs no allocations. The
// returned machine behaves bit-identically to the captured one.
func (s *Snapshot) Fork(pool *cpu.Pool) (*cpu.Machine, error) {
	var mc *cpu.Machine
	if pool != nil {
		mc = pool.GetRaw(s.model)
	}
	if mc == nil {
		var err error
		mc, err = cpu.NewMachine(s.model, 0)
		if err != nil {
			return nil, err
		}
	}
	if err := mc.ForkStateFrom(s.frozen, s.hierImg); err != nil {
		if pool != nil {
			pool.Put(mc)
		}
		return nil, err
	}
	mc.Pipe.SetAddressSpace(mc.BindAddressSpace(0, s.userRoot))
	return mc, nil
}

// ForkKernel forks the machine and rebuilds the captured kernel view on it.
// Only valid for snapshots taken with CaptureKernel.
func (s *Snapshot) ForkKernel(pool *cpu.Pool) (*kernel.Kernel, error) {
	if !s.hasKern {
		return nil, errors.New("snapshot: no kernel state captured")
	}
	mc, err := s.Fork(pool)
	if err != nil {
		return nil, err
	}
	return kernel.Restore(mc, s.kern), nil
}
