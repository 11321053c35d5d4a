package core

import (
	"errors"
	"fmt"

	"whisper/internal/cpu"
	"whisper/internal/isa"
	"whisper/internal/pipeline"
	"whisper/internal/stats"
)

// The leak path every attack shares: ToTE times one gadget run by its RDTSC
// pair, decoder turns a sweep of test values into a byte (§4.3.1), SendByte
// sends a covert-channel byte one bit at a time, and LeakBytes leaks n bytes
// and accounts their cost.

// LeakResult reports a finished leak.
type LeakResult struct {
	Data   []byte
	Cycles uint64  // simulated cycles consumed
	Bps    float64 // throughput at the model's clock
}

// ToTE runs prog, a gadget that reads the timer into RSI before its
// transient window and into RDI after it, and returns the time to transient
// execution end, RDI−RSI. A sample whose timer pair is inverted (an
// interrupt spiked the first read) is discarded and re-measured, as a real
// attacker would, up to four tries.
func ToTE(p *pipeline.Pipeline, prog *isa.Program) (uint64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		if _, err := p.Exec(prog, maxProbeCycles); err != nil {
			return 0, fmt.Errorf("core: probe: %w", err)
		}
		if t1, t2 := p.Reg(isa.RSI), p.Reg(isa.RDI); t2 >= t1 {
			return t2 - t1, nil
		}
	}
	return 0, errors.New("core: probe timer unusable after retries")
}

// decoder is the paper's §4.3.1 byte decode. It warms the gadget's
// icache/DSB/predictor state with warmup never-matching probes (test value
// 256 cannot equal a byte), so cold-start timings do not pollute the first
// batch, then sweeps test values 0..255 batches times. By default each batch
// votes for its extreme-ToTE value (max for SignLonger, min for
// SignShorter) and the byte is the argmax of the votes. median instead takes
// the extreme of the per-value medians: the vote needs the signal to exceed
// the largest of 256 noise draws within a single batch, which dies once
// jitter rivals the few-cycle signal, while medians suppress jitter by
// ~1/sqrt(batches) and stay immune to the heavy-tailed interrupt spikes that
// break a plain mean (see the NoiseSweep experiment).
type decoder struct {
	warmup  int
	batches int
	sign    Sign
	median  bool
}

// decode recovers one byte on m; probe measures one ToTE at a test value.
func (d decoder) decode(m *cpu.Machine, probe func(test uint64) (uint64, error)) (byte, error) {
	name, batchName := "core.sweepByte", "core.sweepByte.batch"
	if d.median {
		name, batchName = "core.sweepByteMedian", "core.sweepByteMedian.batch"
	}
	sp := m.Obs.StartSpan(name, m.Pipe.Cycle())
	sp.AttrInt("batches", d.batches)
	sp.AttrBool("signLonger", d.sign == SignLonger)
	b, err := d.run(m, batchName, probe)
	if err == nil {
		sp.AttrU64("decoded", uint64(b))
	}
	sp.End(m.Pipe.Cycle())
	return b, err
}

func (d decoder) run(m *cpu.Machine, batchName string, probe func(test uint64) (uint64, error)) (byte, error) {
	if d.batches <= 0 {
		return 0, errors.New("core: batches must be positive")
	}
	for i := 0; i < d.warmup; i++ {
		if _, err := probe(256); err != nil {
			return 0, err
		}
	}
	var votes [256]int
	var totes [256]uint64
	var samples [256][]uint64 // per-value ToTEs, median decode only
	for batch := 0; batch < d.batches; batch++ {
		bsp := m.Obs.StartSpan(batchName, m.Pipe.Cycle())
		bsp.AttrInt("batch", batch)
		for tv := range totes {
			tote, err := probe(uint64(tv))
			if err != nil {
				return 0, err
			}
			totes[tv] = tote
			if d.median {
				samples[tv] = append(samples[tv], tote)
			}
		}
		if !d.median {
			pick := d.extreme(totes[:])
			votes[pick]++
			bsp.AttrInt("vote", pick)
		}
		bsp.End(m.Pipe.Cycle())
	}
	if !d.median {
		return byte(stats.ArgmaxInt(votes[:])), nil
	}
	for tv := range samples {
		totes[tv] = stats.MedianU64(samples[tv])
	}
	return byte(d.extreme(totes[:])), nil
}

// extreme returns the test value whose ToTE carries the signal.
func (d decoder) extreme(totes []uint64) int {
	if d.sign == SignLonger {
		return stats.Argmax(totes)
	}
	return stats.Argmin(totes)
}

// SendByte is the bit codec of every covert channel (§4.1, §4.4): it sends b
// one bit at a time, most significant first, and returns the byte the
// receiver decoded. sendBit sends one bit and returns the receiver's
// decision for it; its first error ends the byte.
func SendByte(b byte, sendBit func(bit bool) (bool, error)) (byte, error) {
	var got byte
	for bit := 7; bit >= 0; bit-- {
		rx, err := sendBit(b>>uint(bit)&1 == 1)
		if err != nil {
			return 0, err
		}
		if rx {
			got |= 1 << uint(bit)
		}
	}
	return got, nil
}

// LeakBytes is the byte loop of every leak: it recovers n bytes on m, byte i
// from leakByte(i), and reports them with the simulated cycles they took and
// the throughput at the model's clock. It opens one core.leak span, named
// by attack, and one core.leak.byte span per byte carrying the value.
func LeakBytes(m *cpu.Machine, attack string, n int, leakByte func(i int) (byte, error)) (LeakResult, error) {
	sp := m.Obs.StartSpan("core.leak", m.Pipe.Cycle())
	sp.Attr("attack", attack)
	sp.Attr("cpu", m.Model.Name)
	sp.AttrInt("bytes", n)
	start := m.Pipe.Cycle()
	out := make([]byte, n)
	for i := range out {
		bsp := m.Obs.StartSpan("core.leak.byte", m.Pipe.Cycle())
		bsp.AttrInt("index", i)
		b, err := leakByte(i)
		if err != nil {
			sp.End(m.Pipe.Cycle()) // force-closes the byte span
			return LeakResult{}, fmt.Errorf("core: %s byte %d: %w", attack, i, err)
		}
		out[i] = b
		bsp.AttrU64("value", uint64(b))
		bsp.End(m.Pipe.Cycle())
	}
	cycles := m.Pipe.Cycle() - start
	sp.End(m.Pipe.Cycle())
	return LeakResult{Data: out, Cycles: cycles, Bps: m.Bps(n, cycles)}, nil
}
