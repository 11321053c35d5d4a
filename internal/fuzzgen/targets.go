package fuzzgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/interp"
	"whisper/internal/kernel"
	"whisper/internal/pipeline"
	"whisper/internal/server"
	"whisper/internal/snapshot"
)

// Execution budgets. Generated programs run a few hundred dynamic
// instructions; these bounds only trip when a generator bug lets a program
// run away, which the fuzzer should then report.
const (
	interpBudget = 2_000_000  // instructions
	pipeBudget   = 50_000_000 // cycles, with skip-ahead
	smtBudget    = 5_000_000  // cycles per thread, lockstep (no skip-ahead)
)

// CheckInterpVsPipeline generates a program from the input and runs it on
// both engines over identical initial memory. Architectural state — every
// compared register and the whole data region — must match, and the engines
// must agree on whether the program completes (fault ordering: a fault one
// engine suppresses and the other doesn't is a divergence).
func CheckInterpVsPipeline(data []byte) error {
	spec := GenerateSpec(data)

	ei := MustEnv()
	ei.SeedData(spec.MemSeed)
	im := interp.New(ei.AS)
	im.SetSignalHandler(spec.Handler)
	ierr := im.Run(spec.Prog, interpBudget)

	ep := MustEnv()
	ep.SeedData(spec.MemSeed)
	pp, err := ep.NewPipeline()
	if err != nil {
		return err
	}
	pp.SetSignalHandler(spec.Handler)
	_, perr := pp.Exec(spec.Prog, pipeBudget)

	if (ierr != nil) != (perr != nil) {
		return fmt.Errorf("fault-ordering divergence: interp err %v, pipeline err %v", ierr, perr)
	}
	if ierr != nil {
		// Both engines rejected the program identically; the generator's
		// contract says this should not happen, so surface it as a finding.
		return fmt.Errorf("generated program fails on both engines: interp %v, pipeline %v", ierr, perr)
	}

	for _, r := range CompareRegs() {
		if got, want := pp.Reg(r), im.Regs[r]; got != want {
			return fmt.Errorf("reg %v diverges: pipeline %#x, interp %#x", r, got, want)
		}
	}
	gotMem, wantMem := ep.DataBytes(), ei.DataBytes()
	if !bytes.Equal(gotMem, wantMem) {
		for j := range wantMem {
			if gotMem[j] != wantMem[j] {
				return fmt.Errorf("memory diverges at +%#x: pipeline %#x, interp %#x", j, gotMem[j], wantMem[j])
			}
		}
	}
	return nil
}

// CheckPipelineInvariants runs a generated workload with an attached
// pipeline.InvariantChecker and fails on any breach. The first input byte
// picks the harness: machine reuse across Reset, an SMT lockstep pair, or a
// kernel-boot probe campaign.
func CheckPipelineInvariants(data []byte) error {
	s := &src{data: data}
	mode := s.intn(4)
	rest := data[min(s.pos, len(data)):]
	switch mode {
	case 0, 1:
		return checkInvariantsResetReuse(rest)
	case 2:
		return checkInvariantsSMT(rest)
	default:
		return checkInvariantsKernelProbe(rest)
	}
}

// checkInvariantsResetReuse audits the cpu.Machine reuse path: the same
// program twice across Machine.Reset, then a final Reset to catch uop leaks.
func checkInvariantsResetReuse(data []byte) error {
	spec := GenerateSpec(data)
	m, err := cpu.NewMachine(Model(), 1)
	if err != nil {
		return err
	}
	inv := pipeline.NewInvariantChecker()
	m.Pipe.SetInvariantChecker(inv)
	for round := 0; round < 2; round++ {
		m.Reset(1)
		if err := InstallEnv(m, spec.MemSeed); err != nil {
			return err
		}
		m.Pipe.SetSignalHandler(spec.Handler)
		if _, err := m.Pipe.Exec(spec.Prog, pipeBudget); err != nil {
			return fmt.Errorf("reset round %d: %w", round, err)
		}
	}
	m.Reset(1)
	return inv.Err()
}

// checkInvariantsSMT audits two sibling cores in cycle lockstep with shared
// hierarchy/LFB and the §4.4 fault-flush propagation between them.
func checkInvariantsSMT(data []byte) error {
	s0, s1 := GeneratePair(data)
	e := MustEnv()
	e.SeedData(s0.MemSeed)
	p0, p1, err := e.NewSMTPair()
	if err != nil {
		return err
	}
	inv0, inv1 := pipeline.NewInvariantChecker(), pipeline.NewInvariantChecker()
	p0.SetInvariantChecker(inv0)
	p1.SetInvariantChecker(inv1)
	p0.SetSignalHandler(s0.Handler)
	p1.SetSignalHandler(s1.Handler)
	p0.BeginExec(s0.Prog, smtBudget)
	p1.BeginExec(s1.Prog, smtBudget)
	done0, done1 := false, false
	seen0, seen1 := 0, 0
	for !done0 || !done1 {
		if !done0 {
			if done0, err = p0.StepCycle(); err != nil {
				return fmt.Errorf("smt thread 0: %w", err)
			}
		}
		if !done1 {
			if done1, err = p1.StepCycle(); err != nil {
				return fmt.Errorf("smt thread 1: %w", err)
			}
		}
		c0 := p0.Clears()
		for _, ev := range c0[seen0:] {
			if ev.Kind == pipeline.ClearFault {
				p1.InjectStall(ev.Cost)
			}
		}
		seen0 = len(c0)
		c1 := p1.Clears()
		for _, ev := range c1[seen1:] {
			if ev.Kind == pipeline.ClearFault {
				p0.InjectStall(ev.Cost)
			}
		}
		seen1 = len(c1)
	}
	if err := inv0.Err(); err != nil {
		return fmt.Errorf("smt thread 0: %w", err)
	}
	if err := inv1.Err(); err != nil {
		return fmt.Errorf("smt thread 1: %w", err)
	}
	return nil
}

// checkInvariantsKernelProbe audits the production attack path: a booted
// kernel, a transient prober, and an input-driven campaign of probes, TLB
// evictions and syscalls, ending in a Reset leak check.
func checkInvariantsKernelProbe(data []byte) error {
	s := &src{data: data}
	m, err := cpu.NewMachine(Model(), int64(1+s.intn(16)))
	if err != nil {
		return err
	}
	inv := pipeline.NewInvariantChecker()
	m.Pipe.SetInvariantChecker(inv)
	k, err := kernel.Boot(m, kernel.Config{KASLR: true, KPTI: s.coin()})
	if err != nil {
		return err
	}
	supp := core.SuppressTSX
	if s.coin() {
		supp = core.SuppressSignal
	}
	pr, err := core.NewProber(k.Machine(), supp, s.coin())
	if err != nil {
		return err
	}
	probes := 8 + s.intn(24)
	for i := 0; i < probes; i++ {
		var target uint64
		switch s.intn(3) {
		case 0:
			target = core.UnmappedVA
		case 1:
			target = k.ProbeTarget(s.intn(kernel.NumSlots))
		default:
			target = k.SecretVA()
		}
		if _, err := pr.Probe(target, uint64(s.byte()), uint64(s.byte())); err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		if s.intn(4) == 0 {
			k.EvictTLB()
		}
		if s.intn(4) == 0 {
			k.SyscallRoundTrip()
		}
	}
	m.Reset(1)
	return inv.Err()
}

// snapDigest folds everything observable about a machine into one comparable
// string: the cycle count, the compared architectural registers, the PMU
// bank, the RNG cursor, and a digest of all of physical memory. Machines with
// equal digests after the same workload executed bit-identically.
func snapDigest(m *cpu.Machine) string {
	regs := make([]uint64, 0, 8)
	for _, r := range CompareRegs() {
		regs = append(regs, m.Pipe.Reg(r))
	}
	seed, draws := m.RandCursor()
	return fmt.Sprintf("c=%d regs=%x pmu=%v rng=%d/%d phys=%016x",
		m.Pipe.Cycle(), regs, m.PMU.Snapshot(), seed, draws,
		m.Phys.DigestFNV(14695981039346656037))
}

// CheckSnapshotRestore pins the snapshot layer's bit-identity contract on
// generated workloads: capture a machine mid-stream, then run the identical
// remainder on the capture source and on two forks (one into a fresh machine,
// one into a dirty pooled machine). Cycle counts, registers, the PMU bank,
// the RNG cursor, and physical memory must all match exactly. The first input
// bit picks the harness: a generated program across Machine-level Capture, or
// a booted kernel with a probe campaign across CaptureKernel/ForkKernel.
func CheckSnapshotRestore(data []byte) error {
	s := &src{data: data}
	mode := s.intn(2)
	rest := data[min(s.pos, len(data)):]
	if mode == 0 {
		return checkSnapshotProgram(rest)
	}
	return checkSnapshotKernel(rest)
}

// checkSnapshotProgram runs a generated program once to dirty the machine
// (caches, predictors, PMU, cycle), captures, then reruns the program as the
// "remainder" on source and forks, comparing full digests.
func checkSnapshotProgram(data []byte) error {
	spec := GenerateSpec(data)
	m, err := cpu.NewMachine(Model(), 1)
	if err != nil {
		return err
	}
	if err := InstallEnv(m, spec.MemSeed); err != nil {
		return err
	}
	m.Pipe.SetSignalHandler(spec.Handler)
	if _, err := m.Pipe.Exec(spec.Prog, pipeBudget); err != nil {
		return fmt.Errorf("snapshot warm-up: %w", err)
	}
	snap, err := snapshot.Capture(m)
	if err != nil {
		return err
	}

	rerun := func(mc *cpu.Machine, who string) (string, error) {
		mc.Pipe.SetSignalHandler(spec.Handler)
		if _, err := mc.Pipe.Exec(spec.Prog, pipeBudget); err != nil {
			return "", fmt.Errorf("%s remainder: %w", who, err)
		}
		return snapDigest(mc), nil
	}
	want, err := rerun(m, "source")
	if err != nil {
		return err
	}

	pool := cpu.NewPool()
	fork, err := snap.Fork(pool)
	if err != nil {
		return err
	}
	got, err := rerun(fork, "fork")
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("fork diverged from capture source:\n got %s\nwant %s", got, want)
	}
	pool.Put(fork)
	fork2, err := snap.Fork(pool) // restores into the dirty recycled machine
	if err != nil {
		return err
	}
	got2, err := rerun(fork2, "pooled fork")
	if err != nil {
		return err
	}
	if got2 != want {
		return fmt.Errorf("pooled fork diverged:\n got %s\nwant %s", got2, want)
	}
	return nil
}

// checkSnapshotKernel boots a kernel, warms it with syscall/TLB traffic,
// captures with CaptureKernel, then runs an input-driven probe campaign on
// the source and on two ForkKernel machines, comparing ToTE sequences and
// full machine digests.
func checkSnapshotKernel(data []byte) error {
	s := &src{data: data}
	cfg := kernel.Config{KASLR: true, KPTI: s.coin()}
	seed := int64(1 + s.intn(16))
	supp := core.SuppressTSX
	if s.coin() {
		supp = core.SuppressSignal
	}
	cmpLoaded := s.coin()
	warm := 1 + s.intn(6)
	type act struct {
		kind       int
		slot       int
		test, cmp  uint64
		evict, sys bool
	}
	acts := make([]act, 4+s.intn(12))
	for i := range acts {
		acts[i] = act{kind: s.intn(3), slot: s.intn(kernel.NumSlots),
			test: uint64(s.byte()), cmp: uint64(s.byte()),
			evict: s.intn(4) == 0, sys: s.intn(4) == 0}
	}

	m, err := cpu.NewMachine(Model(), seed)
	if err != nil {
		return err
	}
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < warm; i++ { // warm prefix: kernel-only traffic
		k.SyscallRoundTrip()
		if i%2 == 0 {
			k.EvictTLB()
		}
	}
	snap, err := snapshot.CaptureKernel(k)
	if err != nil {
		return err
	}

	campaign := func(kk *kernel.Kernel, who string) (string, error) {
		pr, err := core.NewProber(kk.Machine(), supp, cmpLoaded)
		if err != nil {
			return "", err
		}
		totes := make([]uint64, 0, len(acts))
		for i, a := range acts {
			var target uint64
			switch a.kind {
			case 0:
				target = core.UnmappedVA
			case 1:
				target = kk.ProbeTarget(a.slot)
			default:
				target = kk.SecretVA()
			}
			tote, err := pr.Probe(target, a.test, a.cmp)
			if err != nil {
				return "", fmt.Errorf("%s probe %d: %w", who, i, err)
			}
			totes = append(totes, tote)
			if a.evict {
				kk.EvictTLB()
			}
			if a.sys {
				kk.SyscallRoundTrip()
			}
		}
		return fmt.Sprintf("totes=%v %s", totes, snapDigest(kk.Machine())), nil
	}
	want, err := campaign(k, "source")
	if err != nil {
		return err
	}
	pool := cpu.NewPool()
	fk, err := snap.ForkKernel(pool)
	if err != nil {
		return err
	}
	got, err := campaign(fk, "fork")
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("kernel fork diverged from capture source:\n got %s\nwant %s", got, want)
	}
	pool.Put(fk.Machine())
	fk2, err := snap.ForkKernel(pool)
	if err != nil {
		return err
	}
	got2, err := campaign(fk2, "pooled kernel fork")
	if err != nil {
		return err
	}
	if got2 != want {
		return fmt.Errorf("pooled kernel fork diverged:\n got %s\nwant %s", got2, want)
	}
	return nil
}

// CheckServerCanonicalization derives two requests from the input and checks
// the canonicalization contract the serving cache rests on: Normalize is
// idempotent, Hash is stable, and two requests with distinct canonical forms
// never share a hash.
func CheckServerCanonicalization(data []byte) error {
	s := &src{data: data}
	r1 := requestFromBytes(s)
	r2 := requestFromBytes(s)
	n1, err := checkCanonOne(r1)
	if err != nil {
		return err
	}
	n2, err := checkCanonOne(r2)
	if err != nil {
		return err
	}
	if n1 != nil && n2 != nil && !reflect.DeepEqual(*n1, *n2) && n1.Hash() == n2.Hash() {
		return fmt.Errorf("hash collision across distinct canonical requests: %+v vs %+v", *n1, *n2)
	}
	return nil
}

// checkCanonOne validates one request's canonicalization; a rejected request
// is fine (nothing to hold), a canonical one must be a normalize fixpoint
// with a stable hash.
func checkCanonOne(r server.Request) (*server.Request, error) {
	n1, err := r.Normalize()
	if err != nil {
		return nil, nil
	}
	n2, err := n1.Normalize()
	if err != nil {
		return nil, fmt.Errorf("canonical request rejected on re-normalize: %+v: %v", n1, err)
	}
	if !reflect.DeepEqual(n1, n2) {
		return nil, fmt.Errorf("normalize not idempotent: %+v -> %+v", n1, n2)
	}
	if h1, h2 := n1.Hash(), n2.Hash(); h1 != h2 {
		return nil, fmt.Errorf("hash unstable across calls: %s vs %s", h1, h2)
	}
	return &n1, nil
}

// requestFromBytes derives a server.Request from fuzz input: either raw JSON
// through the same decoder the daemon uses, or a structural mix of known and
// junk field values.
func requestFromBytes(s *src) server.Request {
	if s.coin() {
		raw := s.take(s.intn(256))
		var r server.Request
		if len(raw) > 0 && json.Unmarshal(raw, &r) == nil {
			return r
		}
	}
	var r server.Request
	exps := server.Experiments()
	switch pick := s.intn(len(exps) + 2); {
	case pick < len(exps):
		r.Experiment = exps[pick]
	case pick == len(exps):
		r.Experiment = "attacks"
	default:
		r.Experiment = string(s.take(1 + s.intn(8)))
	}
	r.Seed = int64(int8(s.byte()))
	r.ThroughputBytes = int(int8(s.byte()))
	r.KASLRReps = int(int8(s.byte()))
	r.Fig1bBatches = int(int8(s.byte()))
	cpus := []string{"", "skylake", "Kaby Lake", "KABY LAKE", "Zen 3", "amd ryzen 5 5600g", "bogus"}
	r.CPU = cpus[s.intn(len(cpus))]
	if s.coin() {
		r.Secret = string(s.take(s.intn(16)))
	}
	if s.coin() {
		for _, name := range experiments.AttackNames() {
			if s.coin() {
				r.Attacks = append(r.Attacks, name)
			}
		}
		if s.intn(4) == 0 {
			r.Attacks = append(r.Attacks, string(s.take(3)))
		}
	}
	r.KPTI, r.FLARE, r.Docker = s.coin(), s.coin(), s.coin()
	return r
}
