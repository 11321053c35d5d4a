// Package smt implements the paper's §4.4 covert channel between two SMT
// siblings: the Trojan thread triggers suppressed page faults whose pipeline
// flushes stall the shared core, and the spy reads the bit out of its own
// nop-loop iteration count. The sibling pair is modelled as the attacker's
// pipeline (which produces a real machine-clear trace) plus an analytic spy
// whose iteration count over a window is the window length minus the
// co-resident stall, with window-scaled measurement noise.
package smt

import (
	"errors"
	"fmt"
	"math"

	"whisper/internal/core"
	"whisper/internal/kernel"
	"whisper/internal/pipeline"
)

// Mode selects the channel's operating point.
type Mode int

// Operating points from §4.4.
const (
	// ModeReliable is the paper's prototype: ~1 B/s with <5 % error on the
	// i7-7700 — second-scale bit windows, bursts of suppressed faults.
	ModeReliable Mode = iota
	// ModeSecSMT is the SecSMT-evaluation configuration: ~268 KB/s at ~28 %
	// error — one fault per two-kilocycle window.
	ModeSecSMT
)

// spyNoiseCoeff scales the spy's iteration-count noise with √window.
const spyNoiseCoeff = 0.9

// Channel is one Trojan/spy SMT pair.
type Channel struct {
	k    *kernel.Kernel
	pr   *core.Prober
	mode Mode

	BitWindow  uint64 // cycles per bit window
	BurstSize  int    // faults the Trojan issues (and we simulate) per '1'
	threshold  float64
	calibrated bool
}

// NewChannel builds the channel in the given mode on a booted kernel.
func NewChannel(k *kernel.Kernel, mode Mode) (*Channel, error) {
	if k == nil {
		return nil, errors.New("smt: nil kernel")
	}
	var (
		pr  *core.Prober
		err error
	)
	c := &Channel{k: k, mode: mode}
	switch mode {
	case ModeReliable:
		pr, err = core.NewProber(k.Machine(), core.SuppressSignal, false)
		c.BitWindow = 450_000_000 // second-scale windows
		c.BurstSize = 48
	case ModeSecSMT:
		pr, err = core.NewProber(k.Machine(), core.SuppressTSX, false)
		c.BitWindow = 2_000
		c.BurstSize = 1
	default:
		return nil, fmt.Errorf("smt: unknown mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	c.pr = pr
	return c, nil
}

// sendWindow runs one bit window on the Trojan side and returns the spy's
// iteration count for that window.
func (c *Channel) sendWindow(bit bool) (float64, error) {
	m := c.k.Machine()
	p := m.Pipe
	start := p.Cycle()
	var stall uint64
	if bit {
		for i := 0; i < c.BurstSize; i++ {
			if _, err := c.pr.Probe(core.UnmappedVA, 1, 1); err != nil {
				return 0, err
			}
			for _, ev := range p.Clears() {
				if ev.Kind == pipeline.ClearFault {
					stall += ev.Cost
				}
			}
		}
	}
	spent := p.Cycle() - start
	if spent < c.BitWindow {
		p.Skip(c.BitWindow - spent)
	}
	// In the reliable mode the Trojan keeps bursting for the whole
	// second-scale window; extrapolate the measured per-burst stall across
	// it. The SecSMT operating point already saturates the window with its
	// single fault.
	if c.mode == ModeReliable && bit && spent > 0 && c.BitWindow > spent {
		stall = uint64(float64(stall) * float64(c.BitWindow) / float64(spent))
	}
	if stall > c.BitWindow {
		stall = c.BitWindow
	}
	noise := m.Rand.NormFloat64() * spyNoiseCoeff * math.Sqrt(float64(c.BitWindow))
	return float64(c.BitWindow) - float64(stall) + noise, nil
}

// Calibrate trains the spy's decision threshold with a known preamble.
func (c *Channel) Calibrate(reps int) error {
	var ones, zeros float64
	for i := 0; i < reps; i++ {
		it1, err := c.sendWindow(true)
		if err != nil {
			return err
		}
		it0, err := c.sendWindow(false)
		if err != nil {
			return err
		}
		ones += it1
		zeros += it0
	}
	ones /= float64(reps)
	zeros /= float64(reps)
	if ones >= zeros {
		return errors.New("smt: no stall signal between siblings")
	}
	c.threshold = (ones + zeros) / 2
	c.calibrated = true
	return nil
}

// Transfer sends data Trojan→spy and returns the spy's decoding with
// throughput accounting.
func (c *Channel) Transfer(data []byte) (core.LeakResult, error) {
	if !c.calibrated {
		if err := c.Calibrate(8); err != nil {
			return core.LeakResult{}, err
		}
	}
	return core.LeakBytes(c.k.Machine(), "SMT", len(data), func(i int) (byte, error) {
		return core.SendByte(data[i], func(bit bool) (bool, error) {
			iters, err := c.sendWindow(bit)
			return iters < c.threshold, err // the Trojan's flushes slowed the spy
		})
	})
}
