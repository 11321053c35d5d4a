package pipeline

import (
	"whisper/internal/isa"
	"whisper/internal/mem"
	"whisper/internal/pmu"
)

// dsbCache models the decoded stream buffer (uop cache) as an LRU set of
// 64-byte code-line addresses whose decoded uops are available at full fetch
// width. A resteer bypasses it for a few instructions (cfg.MITEResteer),
// which is what moves delivery from DSB to MITE in the paper's Table 3 when
// the transient Jcc triggers.
type dsbLine struct {
	va   uint64 // line VA
	tick uint64 // last-use tick
}

// The line set is a small linear-scanned slice rather than a map: fetch
// probes it every cycle, and at DSB capacities (tens of lines) a scan beats
// hashing — with a last-hit memo making the common straight-line case O(1).
// Ticks are unique, so LRU victim choice is deterministic either way.
type dsbCache struct {
	cap   int
	lines []dsbLine
	tick  uint64
	last  int // index of the most recent hit (fast path; verified before use)
}

func newDSBCache(capacity int) *dsbCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &dsbCache{cap: capacity, lines: make([]dsbLine, 0, capacity)}
}

// hit reports whether lineVA is cached and, if so, marks it used by n
// consecutive fetch cycles: each would bump the tick, and only the last
// tick stays on the line.
func (d *dsbCache) hit(lineVA, n uint64) bool {
	if d.last >= len(d.lines) || d.lines[d.last].va != lineVA {
		i := 0
		for i < len(d.lines) && d.lines[i].va != lineVA {
			i++
		}
		if i == len(d.lines) {
			return false
		}
		d.last = i
	}
	d.tick += n
	d.lines[d.last].tick = d.tick
	return true
}

func (d *dsbCache) insert(lineVA uint64) {
	d.tick++
	for i := range d.lines {
		if d.lines[i].va == lineVA {
			d.lines[i].tick = d.tick
			d.last = i
			return
		}
	}
	if len(d.lines) >= d.cap {
		victim := 0
		for i := 1; i < len(d.lines); i++ {
			if d.lines[i].tick < d.lines[victim].tick {
				victim = i
			}
		}
		d.lines[victim] = dsbLine{va: lineVA, tick: d.tick}
		d.last = victim
		return
	}
	d.lines = append(d.lines, dsbLine{va: lineVA, tick: d.tick})
	d.last = len(d.lines) - 1
}

// reset empties the DSB and rewinds its LRU tick (machine reuse).
func (d *dsbCache) reset() {
	d.lines = d.lines[:0]
	d.tick = 0
	d.last = 0
}

// copyFrom makes d identical to src (snapshot restore); no allocations once
// d's backing array has reached src's length.
func (d *dsbCache) copyFrom(src *dsbCache) {
	d.cap = src.cap
	d.lines = append(d.lines[:0], src.lines...)
	d.tick = src.tick
	d.last = src.last
}

// fetch pulls instructions along the predicted path into the IDQ.
func (p *Pipeline) fetch() {
	if p.fetchIdx < 0 || p.blockedOnRet != nil || p.cycle < p.fetchStallUntil {
		return
	}
	if p.fetchIdx >= p.prog.Len() {
		return
	}

	// Per-cycle delivery path: DSB if the current line is cached and we are
	// not in a post-resteer MITE window.
	lineVA := p.prog.VA(p.fetchIdx) &^ (mem.LineSize - 1)
	useDSB := p.miteLeft == 0 && p.dsb.hit(lineVA, 1)
	width := p.cfg.MITEWidth
	if useDSB {
		width = p.cfg.FetchWidth
	} else {
		p.res.PMU.Inc(pmu.IdqAllMiteCyclesAnyUops)
	}
	p.res.PMU.Inc(pmu.IcFw32)

	fetched := 0
	for fetched < width && p.idq.Len() < p.cfg.IDQSize {
		if p.fetchIdx < 0 || p.fetchIdx >= p.prog.Len() {
			break
		}
		d := &p.dec.insts[p.fetchIdx]
		pc := d.pc
		if !p.fetchLineReady(pc) {
			break // ITLB/icache stall installed
		}
		u := p.allocUop()
		u.seq = p.seq
		u.idx = p.fetchIdx
		u.d = d
		u.pc = pc
		u.dsb = useDSB
		u.hitLevel = -1
		u.fetchAt = p.cycle
		p.seq++
		if !useDSB {
			p.dsb.insert(pc &^ (mem.LineSize - 1))
			if p.miteLeft > 0 {
				p.miteLeft--
			}
		}
		p.idq.PushBack(u)
		fetched++
		if !p.predictNext(u) {
			break // fetch redirected or blocked
		}
	}
	if useDSB && fetched > 0 {
		p.res.PMU.Inc(pmu.IdqDsbCyclesAny)
		if fetched == width {
			p.res.PMU.Inc(pmu.IdqDsbCyclesOK)
		}
	}
}

// spinFetch applies n cycles of fetch into a full IDQ in one go. Such a
// cycle delivers nothing: it counts one IcFw32 and takes one look at the
// delivery path — a DSB hit that bumps the line's LRU tick, or one MITE
// cycle — exactly as n calls of fetch would.
func (p *Pipeline) spinFetch(n uint64) {
	lineVA := p.prog.VA(p.fetchIdx) &^ (mem.LineSize - 1)
	if p.miteLeft > 0 || !p.dsb.hit(lineVA, n) {
		p.res.PMU.Add(pmu.IdqAllMiteCyclesAnyUops, n)
	}
	p.res.PMU.Add(pmu.IcFw32, n)
}

// fetchLineReady charges ITLB and icache latency when fetch crosses into a
// new code line; it reports false (and installs a stall) when the line is
// not immediately deliverable.
func (p *Pipeline) fetchLineReady(pc uint64) bool {
	lineVA := pc &^ (mem.LineSize - 1)
	if p.haveFetchLine && lineVA == p.lastFetchLine {
		return true
	}
	var pa uint64
	if r, ok := p.res.ITLB.Lookup(pc); ok {
		p.res.PMU.Inc(pmu.BpL1TlbFetchHit)
		pa = r.PA
	} else {
		w := p.res.AS.WalkVA(pc)
		var walkLat uint64
		for _, pteAddr := range w.PTEReads() {
			lat, _ := p.res.Hier.AccessData(pteAddr)
			walkLat += lat + p.cfg.WalkLevelLat
			p.res.PMU.Inc(pmu.PageWalkerLoads)
		}
		p.res.PMU.Add(pmu.ItlbMissesWalkActive, walkLat)
		if !w.Present {
			// Fetch from an unmapped page: stop fetching; the harness maps
			// all code it runs, so this only happens on wild speculation.
			p.fetchIdx = -1
			return false
		}
		p.res.ITLB.Insert(w)
		if walkLat > 0 {
			// Stall for the walk; the retry will hit the ITLB and then
			// perform the icache access.
			p.fetchStallUntil = maxU64(p.fetchStallUntil, p.cycle+walkLat)
			return false
		}
		pa = w.PA
	}
	lat, lvl := p.res.Hier.AccessInst(pa)
	p.haveFetchLine = true
	p.lastFetchLine = lineVA
	if lvl != mem.LevelL1 {
		p.res.PMU.Add(pmu.Icache16BIfdataStall, lat)
		p.fetchStallUntil = maxU64(p.fetchStallUntil, p.cycle+lat)
		return false
	}
	return true
}

// predictNext steers fetch after u; it returns false when fetch must stop
// this cycle (taken branch, blocked ret, or halt).
func (p *Pipeline) predictNext(u *uop) bool {
	switch u.d.in.Op {
	case isa.OpJmp:
		p.fetchIdx = u.d.in.Target
		return false
	case isa.OpCall:
		p.res.BPU.PushRSB(p.prog.VA(u.idx + 1))
		p.fetchIdx = u.d.in.Target
		return false
	case isa.OpRet:
		if target, ok := p.res.BPU.PopRSB(); ok {
			if idx := p.prog.Index(target); idx >= 0 {
				u.predTaken = true
				u.predTarget = target
				p.fetchIdx = idx
				return false
			}
		}
		// No usable prediction: fetch blocks until the ret resolves.
		p.blockedOnRet = u
		p.fetchIdx = -1
		return false
	case isa.OpJcc:
		u.predTaken = p.res.BPU.PredictCond(u.pc)
		if u.predTaken {
			p.fetchIdx = u.d.in.Target
			return false
		}
		p.fetchIdx = u.idx + 1
		return true
	case isa.OpHalt:
		p.fetchIdx = -1
		return false
	default:
		p.fetchIdx = u.idx + 1
		return true
	}
}
