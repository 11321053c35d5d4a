package smt

import (
	"errors"
	"fmt"

	"whisper/internal/core"
	"whisper/internal/isa"
	"whisper/internal/kernel"
)

// MechanicalChannel is the §4.4 covert channel running end to end on the
// DualCore substrate: the Trojan thread really executes its fault loop on
// one pipeline while the spy's timed nop loop runs on the sibling, with the
// interference carried purely by the co-scheduler's cross-thread flush
// stalls. Unlike Channel (which is calibrated to the paper's reported
// operating points), nothing here is parameterised to hit a number — it is
// the mechanism itself.
type MechanicalChannel struct {
	k *kernel.Kernel
	d *DualCore

	trojan  *isa.Program
	idle    *isa.Program
	spy     *isa.Program
	handler int

	threshold  uint64
	calibrated bool
}

// Mechanical channel geometry: the spy window must cover several
// fault+delivery rounds of the Trojan.
const (
	mechTrojanFaults = 8
	mechSpyIters     = 55_000
	mechTrojanCode   = kernel.UserCodeBase + 0x58000
	mechIdleCode     = kernel.UserCodeBase + 0x60000
	mechSpyCode      = kernel.UserCodeBase + 0x68000
	mechBudget       = 5_000_000
)

// NewMechanicalChannel builds the channel on a booted kernel.
func NewMechanicalChannel(k *kernel.Kernel, seed int64) (*MechanicalChannel, error) {
	d, err := NewDualCore(k, seed)
	if err != nil {
		return nil, err
	}
	trojan, handler, err := TrojanProgram(mechTrojanCode, mechTrojanFaults)
	if err != nil {
		return nil, fmt.Errorf("smt: trojan: %w", err)
	}
	idle, err := IdleProgram(mechIdleCode, mechTrojanFaults)
	if err != nil {
		return nil, fmt.Errorf("smt: idle: %w", err)
	}
	spy, err := SpyProgram(mechSpyCode, mechSpyIters)
	if err != nil {
		return nil, fmt.Errorf("smt: spy: %w", err)
	}
	return &MechanicalChannel{k: k, d: d, trojan: trojan, idle: idle, spy: spy, handler: handler}, nil
}

// sendBit transmits one bit and returns the spy's loop time.
func (c *MechanicalChannel) sendBit(bit bool) (uint64, error) {
	t0 := c.idle
	handler := -1
	if bit {
		t0 = c.trojan
		handler = c.handler
	}
	c.d.T0.SetSignalHandler(handler)
	defer c.d.T0.SetSignalHandler(-1)
	if _, _, err := c.d.RunConcurrent(t0, mechBudget, c.spy, mechBudget); err != nil {
		return 0, err
	}
	t1, t2 := c.d.T1.Reg(isa.RSI), c.d.T1.Reg(isa.RDI)
	if t2 < t1 {
		return 0, errors.New("smt: spy timer inverted")
	}
	return t2 - t1, nil
}

// Calibrate learns the spy's decision threshold from a known preamble.
func (c *MechanicalChannel) Calibrate(reps int) error {
	// Warm both threads' code paths first.
	if _, err := c.sendBit(false); err != nil {
		return err
	}
	var ones, zeros uint64
	for i := 0; i < reps; i++ {
		t, err := c.sendBit(true)
		if err != nil {
			return err
		}
		ones += t
		t, err = c.sendBit(false)
		if err != nil {
			return err
		}
		zeros += t
	}
	ones /= uint64(reps)
	zeros /= uint64(reps)
	if ones <= zeros {
		return errors.New("smt: no mechanical interference signal")
	}
	c.threshold = (ones + zeros) / 2
	c.calibrated = true
	return nil
}

// Transfer sends data Trojan→spy over the mechanical substrate, each byte
// through core.SendByte. Unlike Channel.Transfer it keeps its own byte loop
// rather than core.LeakBytes: its cost is counted on the sibling thread
// T1's clock, not on the attacker machine's pipeline that LeakBytes reads.
func (c *MechanicalChannel) Transfer(data []byte) (core.LeakResult, error) {
	if !c.calibrated {
		if err := c.Calibrate(4); err != nil {
			return core.LeakResult{}, err
		}
	}
	rx := func(bit bool) (bool, error) {
		t, err := c.sendBit(bit)
		return t > c.threshold, err // the Trojan's flushes slowed the spy
	}
	startT1 := c.d.T1.Cycle()
	out := make([]byte, len(data))
	for i, by := range data {
		got, err := core.SendByte(by, rx)
		if err != nil {
			return core.LeakResult{}, fmt.Errorf("smt: byte %d: %w", i, err)
		}
		out[i] = got
	}
	cycles := c.d.T1.Cycle() - startT1
	return core.LeakResult{
		Data:   out,
		Cycles: cycles,
		Bps:    c.k.Machine().Bps(len(data), cycles),
	}, nil
}
