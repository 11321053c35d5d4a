package pipeline

import (
	"errors"
	"fmt"
	"math/rand"

	"whisper/internal/bpu"
	"whisper/internal/isa"
	"whisper/internal/mem"
	"whisper/internal/paging"
	"whisper/internal/pmu"
	"whisper/internal/tlb"
)

// Resources are the shared microarchitectural structures a core operates on.
// They persist across program executions (caches stay warm, predictors stay
// trained, the cycle counter keeps counting) exactly as on real hardware.
type Resources struct {
	Hier *mem.Hierarchy
	LFB  *mem.LFB
	AS   *paging.AddressSpace
	DTLB *tlb.TLB
	ITLB *tlb.TLB
	BPU  *bpu.BPU
	PMU  *pmu.PMU
	Rand *rand.Rand
}

// ErrUnhandledFault is returned by Exec when a fault occurs with no
// transaction active and no signal handler installed.
var ErrUnhandledFault = errors.New("pipeline: unhandled fault")

// Pipeline is one simulated out-of-order core.
type Pipeline struct {
	cfg Config
	res Resources

	prog  *isa.Program
	regs  [isa.NumRegs]uint64
	flags isa.Flags

	cycle uint64
	seq   uint64

	rob uopRing
	idq uopRing

	// Allocation-free machinery: the uop arena, the per-program decode memo
	// (survives Reset), the decode of the armed program, and scratch for the
	// derivesFrom dataflow walk.
	freeUops []*uop
	decoded  map[*isa.Program]*decProgram
	dec      *decProgram
	dfStack  []dfItem
	markGen  uint64

	// Incrementally maintained ROB aggregates, so the per-cycle bookkeeping
	// (issue gating, PMU activity events, completion polling) never rescans
	// the ROB. Invariants: rsOcc = uops with !done; fencesPending = fence
	// uops with !done; execCount = uops with started && !done; memCount =
	// the load/ret subset of execCount; minDoneAt = the earliest doneAt among
	// started && !done uops (stale-low is harmless: the completion scan
	// recomputes it); lastStartAt = the most recent cycle any uop began.
	rsOcc         int
	fencesPending int
	execCount     int
	memCount      int
	minDoneAt     uint64
	lastStartAt   uint64

	// The active list threads every ROB uop with !done in age order, so the
	// per-cycle execute/complete/skip scans are O(active) instead of O(ROB):
	// in a deep transient window the ROB is mostly completed wrong-path uops
	// that no scan needs to revisit. robBase counts ROB head pops, turning a
	// uop's absolute slot number (robAbs) back into its current position.
	actHead *uop
	actTail *uop
	robBase uint64

	// Frontend state.
	fetchIdx        int // next instruction index; -1 = fetch stopped
	fetchStallUntil uint64
	resteerUntil    uint64
	miteLeft        int
	dsb             *dsbCache
	blockedOnRet    *uop
	lastFetchLine   uint64
	haveFetchLine   bool

	// Recovery / transaction state.
	recoveryUntil uint64
	windowDebt    uint64 // squashed-uop debt accumulated by in-window clears
	windowMisp    bool
	inTxn         bool
	txnRegs       [isa.NumRegs]uint64
	txnFlags      isa.Flags
	txnAbortIdx   int
	sigHandler    int // -1 when absent

	halted bool
	faults int

	execStart   uint64
	execBudget  uint64
	frozenUntil uint64 // external (sibling-induced) full-core stall

	clears []ClearEvent
	tracer TraceFunc
	inv    *InvariantChecker // debug-build auditor; nil in production runs
}

// New builds a core from a configuration and shared resources. All resource
// fields must be non-nil.
func New(cfg Config, res Resources) (*Pipeline, error) {
	if res.Hier == nil || res.LFB == nil || res.AS == nil || res.DTLB == nil ||
		res.ITLB == nil || res.BPU == nil || res.PMU == nil || res.Rand == nil {
		return nil, errors.New("pipeline: nil resource")
	}
	if cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 || cfg.RetireWidth <= 0 ||
		cfg.ROBSize <= 0 || cfg.RSSize <= 0 || cfg.IDQSize <= 0 {
		return nil, fmt.Errorf("pipeline: invalid widths in config %+v", cfg)
	}
	return &Pipeline{
		cfg:         cfg,
		res:         res,
		dsb:         newDSBCache(cfg.DSBLines),
		rob:         newUopRing(cfg.ROBSize),
		idq:         newUopRing(cfg.IDQSize),
		decoded:     make(map[*isa.Program]*decProgram),
		sigHandler:  -1,
		fetchIdx:    -1,
		lastStartAt: ^uint64(0), // no uop has started yet
	}, nil
}

// Cycle returns the global cycle counter (the simulated TSC).
func (p *Pipeline) Cycle() uint64 { return p.cycle }

// Skip advances the cycle counter analytically, for bulk state operations
// (full TLB/cache eviction sweeps) whose cost is known but whose per-access
// simulation adds nothing. See DESIGN.md §4.
func (p *Pipeline) Skip(cycles uint64) {
	p.cycle += cycles
	p.res.PMU.Add(pmu.CyclesTotal, cycles)
}

// Reg returns an architectural register value.
func (p *Pipeline) Reg(r isa.Reg) uint64 { return p.regs[r] }

// SetReg sets an architectural register value (RZERO writes are ignored).
func (p *Pipeline) SetReg(r isa.Reg, v uint64) {
	if r != isa.RZERO {
		p.regs[r] = v
	}
}

// SetInvariantChecker attaches (or, with nil, detaches) a debug-build
// consistency auditor. The checker observes every step, commit, uop
// alloc/recycle, and Reset; it never mutates simulated state. Unlike the
// tracer it survives Reset, so a reused machine stays audited across runs.
func (p *Pipeline) SetInvariantChecker(c *InvariantChecker) {
	p.inv = c
	if c != nil {
		c.live = p.rob.Len() + p.idq.Len()
		c.lastCycle = p.cycle
		c.haveRetire = false
	}
}

// SetSignalHandler installs the instruction index control resumes at when a
// fault is raised outside a transaction (the signal-suppression model).
// Pass -1 to uninstall.
func (p *Pipeline) SetSignalHandler(idx int) { p.sigHandler = idx }

// SwitchAddressSpace performs a CR3 write: the data/instruction TLBs drop
// non-global entries and subsequent walks use the new tables.
func (p *Pipeline) SwitchAddressSpace(as *paging.AddressSpace) {
	p.res.AS = as
	p.res.DTLB.Flush(true)
	p.res.ITLB.Flush(true)
}

// AddressSpace returns the active address space.
func (p *Pipeline) AddressSpace() *paging.AddressSpace { return p.res.AS }

// Clears returns the pipeline-clear trace accumulated since the last Exec.
func (p *Pipeline) Clears() []ClearEvent { return p.clears }

// Faults returns the number of faults raised during the last Exec.
func (p *Pipeline) Faults() int { return p.faults }

// Result summarises one Exec run.
type Result struct {
	Cycles uint64 // cycles consumed by this run
	Faults int
	Halted bool
}

// BeginExec arms the core to run prog from its first instruction; drive it
// with StepCycle (co-scheduled multi-core use) or let Exec do both.
// Microarchitectural state (caches, TLBs, predictors, cycle counter)
// persists from previous runs; architectural registers are whatever SetReg
// left there.
func (p *Pipeline) BeginExec(prog *isa.Program, maxCycles uint64) {
	p.prog = prog
	p.dec = p.decodeProgram(prog)
	p.recycleAll(&p.rob)
	p.recycleAll(&p.idq)
	p.fetchIdx = 0
	p.blockedOnRet = nil
	p.haveFetchLine = false
	p.halted = false
	p.inTxn = false
	p.faults = 0
	p.windowDebt = 0
	p.windowMisp = false
	p.clears = p.clears[:0]
	p.execStart = p.cycle
	p.execBudget = maxCycles
}

// StepCycle advances an armed core by exactly one cycle (no idle
// fast-forwarding, so co-scheduled cores stay in lockstep). It reports
// whether the program has halted.
func (p *Pipeline) StepCycle() (bool, error) {
	if p.halted {
		return true, nil
	}
	if p.cycle-p.execStart >= p.execBudget {
		return false, fmt.Errorf("pipeline: exceeded %d cycles", p.execBudget)
	}
	if err := p.step(false); err != nil {
		return p.halted, err
	}
	if p.inv != nil {
		p.inv.checkCycle(p)
	}
	return p.halted, nil
}

// ExecResult summarises the run armed by the last BeginExec.
func (p *Pipeline) ExecResult() Result {
	return Result{Cycles: p.cycle - p.execStart, Faults: p.faults, Halted: p.halted}
}

// InjectStall freezes the whole core (fetch, issue, execute, retire) for the
// given number of cycles, modelling interference from a co-resident context:
// the SMT sibling's pipeline flush (§4.4) or an external throttling event.
func (p *Pipeline) InjectStall(cycles uint64) {
	p.frozenUntil = maxU64(p.frozenUntil, p.cycle+cycles)
}

// Exec runs prog until a Halt retires or maxCycles elapse.
func (p *Pipeline) Exec(prog *isa.Program, maxCycles uint64) (Result, error) {
	p.BeginExec(prog, maxCycles)
	var err error
	for !p.halted {
		if p.cycle-p.execStart >= p.execBudget {
			return p.ExecResult(), fmt.Errorf("pipeline: exceeded %d cycles", p.execBudget)
		}
		if stepErr := p.step(true); stepErr != nil {
			err = stepErr
			break
		}
		if p.inv != nil {
			p.inv.checkCycle(p)
		}
	}
	return p.ExecResult(), err
}

// step advances the core by one cycle (optionally skipping ahead through a
// provably idle span when the core is not co-scheduled).
func (p *Pipeline) step(allowFF bool) error {
	if p.cycle < p.frozenUntil {
		// Externally stalled (SMT sibling flush): nothing moves.
		if allowFF {
			p.skipFrozen()
		} else {
			p.countCycle()
			p.cycle++
		}
		return nil
	}
	if allowFF && p.skipIdle() {
		return nil
	}
	if err := p.retire(); err != nil {
		return err
	}
	if !p.halted {
		p.complete()
		p.execute()
		p.issue()
		p.fetch()
	}
	p.countCycle()
	p.cycle++
	return nil
}

// skipIdle advances the machine to the next cycle at which any stage can
// change state — the event horizon — in one jump, bulk-applying the per-cycle
// PMU events that per-cycle stepping would have counted. It reports whether
// it advanced; false means the current cycle must be stepped normally.
//
// The horizon is the earliest of: the execution budget's end, the expiry of a
// fetch stall (when fetch is otherwise able to run), a recovery or resteer
// regime boundary (the per-cycle counter predicates flip there), the head
// fault's assist completion, and the completion time of any in-flight uop.
// Within the span nothing issues, starts, completes, or retires, and fetch
// either is gated or spins against a full IDQ, delivering nothing. So every
// per-cycle counter predicate is constant, and the bulk update, spinFetch's
// included, is bit-identical to stepping.
func (p *Pipeline) skipIdle() bool {
	if p.halted {
		return false
	}
	horizon := p.execStart + p.execBudget
	if horizon <= p.cycle {
		return false
	}
	// Fetch runs whenever it is armed and unstalled. Into a full IDQ that
	// issue cannot drain (checked below) it only counts events and bumps the
	// DSB's LRU tick, which spinFetch applies in bulk; fetch that can deliver
	// forces a step.
	fetchSpin := false
	if p.fetchIdx >= 0 && p.blockedOnRet == nil && p.fetchIdx < p.prog.Len() {
		switch {
		case p.cycle < p.fetchStallUntil:
			horizon = minU64(horizon, p.fetchStallUntil)
		case p.idq.Len() < p.cfg.IDQSize:
			return false
		default:
			fetchSpin = true
		}
	}
	// Counter regime boundaries.
	if p.recoveryUntil > p.cycle {
		horizon = minU64(horizon, p.recoveryUntil)
	}
	if p.resteerUntil > p.cycle {
		horizon = minU64(horizon, p.resteerUntil)
	}

	// Retirement: a ready head retires now; a faulting head either waits for
	// its assist (horizon event), stalls behind a draining recovery (counted
	// below), or raises its machine clear now.
	retireStall := false
	if p.rob.Len() > 0 {
		u := p.rob.At(0)
		if u.fault != FaultNone {
			switch {
			case p.cycle < u.assistAt:
				horizon = minU64(horizon, u.assistAt)
			case p.cycle < p.recoveryUntil:
				retireStall = true
			default:
				return false
			}
		} else if u.done {
			return false
		}
	}

	// Execution and completion: any uop that can complete or start this cycle
	// forces a step; in-flight completions bound the horizon. Done uops can
	// do neither, so the scan walks only the active list (rsOcc is the
	// incrementally maintained count of the same set).
	execBusy, memBusy, fencePending := false, false, false
	rsOcc := p.rsOcc
	olderAllDone := true
	for u := p.actHead; u != nil; u = u.actNext {
		if u.d.fence {
			if olderAllDone {
				return false
			}
			fencePending = true
			olderAllDone = false
			continue
		}
		if u.started {
			if u.doneAt <= p.cycle {
				return false
			}
			horizon = minU64(horizon, u.doneAt)
			execBusy = true
			if u.d.load || u.d.in.Op == isa.OpRet {
				memBusy = true
			}
			olderAllDone = false
			continue
		}
		// Unstarted: a uop whose operands are ready would start (or, for
		// memory ops, at least re-walk translation) this cycle.
		if p.wouldStart(int(u.robAbs-p.robBase), u) {
			return false
		}
		olderAllDone = false
	}

	// Issue: mirrors issue()'s blocked paths (recovery, ROB/RS full, fence)
	// and their ResourceStallsAny accounting; anything issuable forces a step.
	issueRSA := false
	if p.idq.Len() > 0 {
		if p.cycle < p.recoveryUntil {
			issueRSA = true
		} else if p.rob.Len() >= p.cfg.ROBSize || rsOcc >= p.cfg.RSSize {
			issueRSA = true
		} else if !fencePending {
			return false
		}
	}

	span := horizon - p.cycle
	pm := p.res.PMU
	pm.Add(pmu.CyclesTotal, span)
	pm.Add(pmu.UopsIssuedStallCycles, span)
	if retireStall {
		pm.Add(pmu.ResourceStallsAny, span)
		pm.Add(pmu.DeDisDispatchTokenStalls2Retire, span)
	}
	if issueRSA {
		pm.Add(pmu.ResourceStallsAny, span)
	}
	if !execBusy {
		pm.Add(pmu.UopsExecutedStallCycles, span)
		pm.Add(pmu.UopsExecutedCoreCyclesNone, span)
	}
	pm.Add(pmu.CycleActivityStallsTotal, span)
	if memBusy {
		pm.Add(pmu.CycleActivityCyclesMemAny, span)
	}
	if rsOcc == 0 {
		pm.Add(pmu.RsEventsEmptyCycles, span)
	}
	if p.idq.Len() == 0 {
		pm.Add(pmu.DeDisUopQueueEmptyDi0, span)
	}
	if p.cycle < p.recoveryUntil {
		pm.Add(pmu.IntMiscRecoveryCycles, span)
		pm.Add(pmu.IntMiscRecoveryCyclesAny, span)
		pm.Add(pmu.DeDisDispatchTokenStalls2Retire, span)
	}
	if p.cycle < p.resteerUntil {
		pm.Add(pmu.IntMiscClearResteerCycles, span)
	}
	if fetchSpin {
		p.spinFetch(span)
	}
	p.cycle = horizon
	return true
}

// skipFrozen advances an externally frozen core (InjectStall) to the earlier
// of the freeze's end and the budget's end in one jump, bulk-applying the
// per-cycle counters. Nothing moves while frozen, so every countCycle
// predicate except the recovery/resteer regimes is constant.
func (p *Pipeline) skipFrozen() {
	horizon := minU64(p.frozenUntil, p.execStart+p.execBudget)
	if horizon <= p.cycle {
		p.countCycle()
		p.cycle++
		return
	}
	span := horizon - p.cycle
	execBusy, memBusy := false, false
	rsOcc := p.rsOcc
	for u := p.actHead; u != nil; u = u.actNext {
		if u.executing(p.cycle) {
			execBusy = true
			if u.d.load || u.d.in.Op == isa.OpRet {
				memBusy = true
			}
		}
	}
	pm := p.res.PMU
	pm.Add(pmu.CyclesTotal, span)
	if !execBusy {
		pm.Add(pmu.UopsExecutedStallCycles, span)
		pm.Add(pmu.UopsExecutedCoreCyclesNone, span)
	}
	pm.Add(pmu.CycleActivityStallsTotal, span)
	if memBusy {
		pm.Add(pmu.CycleActivityCyclesMemAny, span)
	}
	if rsOcc == 0 {
		pm.Add(pmu.RsEventsEmptyCycles, span)
	}
	if p.idq.Len() == 0 {
		pm.Add(pmu.DeDisUopQueueEmptyDi0, span)
	}
	if p.recoveryUntil > p.cycle {
		rec := minU64(p.recoveryUntil, horizon) - p.cycle
		pm.Add(pmu.IntMiscRecoveryCycles, rec)
		pm.Add(pmu.IntMiscRecoveryCyclesAny, rec)
		pm.Add(pmu.DeDisDispatchTokenStalls2Retire, rec)
	}
	if p.resteerUntil > p.cycle {
		pm.Add(pmu.IntMiscClearResteerCycles, minU64(p.resteerUntil, horizon)-p.cycle)
	}
	p.cycle = horizon
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// issue moves uops from the IDQ into the ROB/RS.
func (p *Pipeline) issue() {
	issued := 0
	for issued < p.cfg.IssueWidth && p.idq.Len() > 0 {
		if p.cycle < p.recoveryUntil { // allocator busy recovering
			p.res.PMU.Inc(pmu.ResourceStallsAny)
			break
		}
		if p.rob.Len() >= p.cfg.ROBSize || p.rsOcc >= p.cfg.RSSize {
			p.res.PMU.Inc(pmu.ResourceStallsAny)
			break
		}
		if p.fencesPending > 0 { // LFENCE semantics: issue stalls behind it
			break
		}
		u := p.idq.PopFront()
		u.issueAt = p.cycle
		u.robAbs = p.robBase + uint64(p.rob.Len())
		p.rob.PushBack(u)
		p.activePush(u)
		p.rsOcc++
		if u.d.fence {
			p.fencesPending++
		}
		p.res.PMU.Inc(pmu.UopsIssuedAny)
		// Delivery-source events count uops actually handed to the backend;
		// uops discarded from the IDQ by a squash never count.
		if u.dsb {
			p.res.PMU.Inc(pmu.IdqDsbUops)
		} else {
			p.res.PMU.Inc(pmu.IdqMsMiteUops)
		}
		op := u.d.in.Op
		if u.d.fence || op == isa.OpXbegin || op == isa.OpXend || op == isa.OpRdtsc {
			p.res.PMU.Inc(pmu.IdqMsUops) // microcode-sequenced
			if u.dsb {
				p.res.PMU.Inc(pmu.IdqMsDsbCycles)
			}
		}
		issued++
	}
	if issued == 0 {
		p.res.PMU.Inc(pmu.UopsIssuedStallCycles)
	}
}

// retire commits up to RetireWidth uops in order, raising any fault at the
// head.
func (p *Pipeline) retire() error {
	for n := 0; n < p.cfg.RetireWidth && p.rob.Len() > 0; n++ {
		u := p.rob.At(0)
		if u.fault != FaultNone {
			if p.cycle < u.assistAt {
				return nil // fault still processing
			}
			if p.cycle < p.recoveryUntil {
				// A branch recovery is still draining; the machine clear
				// serialises behind it.
				p.res.PMU.Inc(pmu.ResourceStallsAny)
				p.countRetireStall()
				return nil
			}
			return p.raiseFault(u)
		}
		if !u.done || p.cycle < u.doneAt {
			return nil
		}
		p.commit(u)
		if p.inv != nil {
			p.inv.noteRetire(u)
		}
		p.emitTrace(u, true)
		p.rob.PopFront()
		p.robBase++
		halted := p.halted
		p.recycleUop(u)
		if halted {
			return nil
		}
	}
	return nil
}

func (p *Pipeline) countRetireStall() {
	p.res.PMU.Inc(pmu.DeDisDispatchTokenStalls2Retire)
}

// commit applies a uop's architectural effects.
func (p *Pipeline) commit(u *uop) {
	p.res.PMU.Inc(pmu.InstRetired)
	p.res.PMU.Inc(pmu.UopsRetiredAll)
	if dst := u.d.dst; dst != isa.RZERO {
		p.regs[dst] = u.result
	}
	if u.d.writesFlags {
		p.flags = u.flagsOut
	}
	switch u.d.in.Op {
	case isa.OpStore:
		if u.translated {
			p.res.Hier.Phys.Write(u.memPA, u.d.in.Size, u.storeData)
			p.res.Hier.AccessData(u.memPA)
		}
	case isa.OpCall:
		if u.translated {
			p.res.Hier.Phys.Write(u.memPA, 8, u.storeData)
			p.res.Hier.AccessData(u.memPA)
		}
	case isa.OpClflush:
		if u.translated {
			p.res.Hier.Flush(u.memPA)
		}
	case isa.OpPrefetch:
		if u.translated {
			p.res.Hier.Prefetch(u.memPA)
		}
	case isa.OpXbegin:
		p.inTxn = true
		p.txnRegs = p.regs
		p.txnFlags = p.flags
		p.txnAbortIdx = u.d.in.Target
	case isa.OpXend:
		p.inTxn = false
	case isa.OpLoad:
		if u.hitLevel >= int(mem.LevelL2) {
			p.res.PMU.Inc(pmu.MemLoadRetiredL1Miss)
		}
		if u.hitLevel >= int(mem.LevelDRAM) {
			p.res.PMU.Inc(pmu.MemLoadRetiredL3Miss)
		}
	case isa.OpHalt:
		p.halted = true
	}
}

// raiseFault performs the exception machine clear for the faulting uop at
// the ROB head: every in-flight uop is squashed, the frontend is redirected
// to the abort handler (TSX) or signal handler, and the flush cost scales
// with in-flight state plus the recovery debt of clears that happened inside
// the transient window — the mechanism behind the paper's Table 3
// RESOURCE_STALLS / CLEAR_RESTEER deltas and the TET-MD timing signal.
func (p *Pipeline) raiseFault(u *uop) error {
	p.faults++
	p.res.PMU.Inc(pmu.MachineClearsCount)
	occupancy := uint64(p.rob.Len()) + uint64(p.idq.Len())
	cost := p.cfg.ExcFlushBase + uint64(p.cfg.ExcFlushPerUop*float64(occupancy)) + p.windowDebt
	if p.windowMisp {
		// The clear's frontend redirect replays through stale indirect
		// predictor state; Skylake counts it as a mispredicted indirect.
		p.res.PMU.Inc(pmu.BrMispExecIndirect)
		p.res.PMU.Inc(pmu.BrMispExecAllBranches)
	}
	p.clears = append(p.clears, ClearEvent{Cycle: p.cycle, Kind: ClearFault, Cost: cost})

	var redirect int
	var extra uint64
	switch {
	case p.inTxn:
		redirect = p.txnAbortIdx
		extra = p.cfg.TSXAbortLat
		p.regs = p.txnRegs
		p.flags = p.txnFlags
		p.inTxn = false
	case p.sigHandler >= 0:
		redirect = p.sigHandler
		extra = p.cfg.SignalDeliverLat
	default:
		p.halted = true
		return fmt.Errorf("%w: %s at pc %#x (va %#x)", ErrUnhandledFault, u.fault, u.pc, u.memVA)
	}

	p.emitTrace(u, false)
	p.squashFrom(&p.rob, 1)
	p.squashFrom(&p.idq, 0)
	p.rob.PopFront()
	p.robBase++
	p.noteDrop(u)
	p.recycleUop(u)
	p.blockedOnRet = nil
	p.fetchIdx = redirect
	p.haveFetchLine = false
	p.miteLeft = p.cfg.MITEResteer
	until := p.cycle + cost + extra
	// The redirect abandons any wrong-path fetch stall (a pending icache
	// fill completes in the background but no longer gates fetch).
	p.fetchStallUntil = until
	p.recoveryUntil = maxU64(p.recoveryUntil, until)
	p.windowDebt = 0
	p.windowMisp = false
	return nil
}

// countCycle updates the per-cycle PMU events from the incrementally
// maintained ROB aggregates (every uop started this cycle has
// startAt == cycle, so executing() collapses to started && !done here).
func (p *Pipeline) countCycle() {
	pm := p.res.PMU
	pm.Inc(pmu.CyclesTotal)

	if p.execCount == 0 {
		pm.Inc(pmu.UopsExecutedStallCycles)
		pm.Inc(pmu.UopsExecutedCoreCyclesNone)
	}
	if p.lastStartAt != p.cycle {
		pm.Inc(pmu.CycleActivityStallsTotal)
	}
	if p.memCount > 0 {
		pm.Inc(pmu.CycleActivityCyclesMemAny)
	}
	if p.rsOcc == 0 {
		pm.Inc(pmu.RsEventsEmptyCycles)
	}
	if p.idq.Len() == 0 {
		pm.Inc(pmu.DeDisUopQueueEmptyDi0)
	}
	if p.cycle < p.recoveryUntil {
		pm.Inc(pmu.IntMiscRecoveryCycles)
		pm.Inc(pmu.IntMiscRecoveryCyclesAny)
		// Zen counts dispatch stalls on retire tokens while the retire
		// queue drains a recovery.
		pm.Inc(pmu.DeDisDispatchTokenStalls2Retire)
	}
	if p.cycle < p.resteerUntil {
		pm.Inc(pmu.IntMiscClearResteerCycles)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Reset returns the core to its power-on state against a fresh address space:
// registers, the cycle counter, the frontend (including the DSB), and all
// recovery/transaction state are cleared exactly as New leaves them. The uop
// arena and the per-program decode memo are retained — they are invisible to
// the simulation — so a reset machine re-runs programs without re-allocating.
// Shared resources (caches, TLBs, BPU, PMU) are reset by their owner.
func (p *Pipeline) Reset(as *paging.AddressSpace) {
	p.recycleAll(&p.rob)
	p.recycleAll(&p.idq)
	p.prog = nil
	p.dec = nil
	p.regs = [isa.NumRegs]uint64{}
	p.flags = isa.Flags{}
	p.cycle = 0
	p.seq = 0
	p.fetchIdx = -1
	p.fetchStallUntil = 0
	p.resteerUntil = 0
	p.miteLeft = 0
	p.dsb.reset()
	p.blockedOnRet = nil
	p.lastFetchLine = 0
	p.haveFetchLine = false
	p.recoveryUntil = 0
	p.windowDebt = 0
	p.windowMisp = false
	p.inTxn = false
	p.txnRegs = [isa.NumRegs]uint64{}
	p.txnFlags = isa.Flags{}
	p.txnAbortIdx = 0
	p.sigHandler = -1
	p.halted = false
	p.faults = 0
	p.execStart = 0
	p.execBudget = 0
	p.frozenUntil = 0
	p.clears = p.clears[:0]
	p.tracer = nil
	p.res.AS = as
	if p.inv != nil {
		p.inv.noteReset(p)
	}
}

// SetAddressSpace rebinds the page-table walker without the CR3 side effects
// of SwitchAddressSpace (no TLB flush). Snapshot restore uses it: the TLB
// contents are copied separately and must survive the rebind.
func (p *Pipeline) SetAddressSpace(as *paging.AddressSpace) { p.res.AS = as }

// CopyStateFrom makes p's simulation-visible state identical to src's, which
// must be quiescent (between Execs, rings drained by retirement or abandoned).
// Both pipelines must share a Config. The rings, arena, decode memo, tracer,
// and invariant checker stay p's own: a quiescent pipeline's leftovers are
// recycled on the next BeginExec without touching a single counter, so
// dropping them here is observationally identical to carrying them. The
// address space is NOT copied — the caller rebinds it (SetAddressSpace) to a
// table tree over p's own physical memory.
func (p *Pipeline) CopyStateFrom(src *Pipeline) {
	p.recycleAll(&p.rob)
	p.recycleAll(&p.idq)
	p.prog = nil
	p.dec = nil
	p.regs = src.regs
	p.flags = src.flags
	p.cycle = src.cycle
	p.seq = src.seq
	p.fetchIdx = -1
	p.fetchStallUntil = src.fetchStallUntil
	p.resteerUntil = src.resteerUntil
	p.miteLeft = src.miteLeft
	p.dsb.copyFrom(src.dsb)
	p.blockedOnRet = nil
	p.lastFetchLine = src.lastFetchLine
	p.haveFetchLine = false
	p.recoveryUntil = src.recoveryUntil
	p.windowDebt = src.windowDebt
	p.windowMisp = src.windowMisp
	p.inTxn = false
	p.txnRegs = src.txnRegs
	p.txnFlags = src.txnFlags
	p.txnAbortIdx = src.txnAbortIdx
	p.sigHandler = src.sigHandler
	p.halted = src.halted
	p.faults = src.faults
	p.execStart = src.execStart
	p.execBudget = src.execBudget
	p.frozenUntil = src.frozenUntil
	p.clears = p.clears[:0]
	p.tracer = nil
}
