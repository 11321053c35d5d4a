package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/smt"
	"whisper/internal/stats"
)

// ThroughputRow is one channel/attack throughput measurement (§4.1, §4.4).
type ThroughputRow struct {
	Name     string
	CPU      string
	Bytes    int
	Bps      float64
	ErrRate  float64
	ErrKind  string  // "byte" or "bit" (the SMT rates in §4.4 are bit rates)
	PaperBps float64 // 0 when the paper reports none
	PaperErr float64
}

// randomPayload is deterministic pseudo-random data (the paper uses 1k
// random bytes).
func randomPayload(n int, seed byte) []byte {
	out := make([]byte, n)
	x := uint32(seed) | 0x9e3779b9
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

func byteRow(name, cpuName string, payload []byte, res core.LeakResult, paperBps, paperErr float64) ThroughputRow {
	return ThroughputRow{
		Name:     name,
		CPU:      cpuName,
		Bytes:    len(payload),
		Bps:      res.Bps,
		ErrRate:  stats.ByteErrorRate(res.Data, payload),
		ErrKind:  "byte",
		PaperBps: paperBps,
		PaperErr: paperErr,
	}
}

func bitRow(name, cpuName string, payload []byte, res core.LeakResult, paperBps, paperErr float64) ThroughputRow {
	return ThroughputRow{
		Name:     name,
		CPU:      cpuName,
		Bytes:    len(payload),
		Bps:      res.Bps,
		ErrRate:  stats.BitErrorRate(res.Data, payload),
		ErrKind:  "bit",
		PaperBps: paperBps,
		PaperErr: paperErr,
	}
}

// Throughput measures every §4.1/§4.4 channel plus the cache-channel
// baselines. bytes sizes the payload (the paper uses 1024). Each channel
// boots its own machine with the original serial sweep's per-channel seed
// offset (seed..seed+7), so the eight trials are independent cells and the
// table reads identically at any Exec.Parallel.
func Throughput(ex Exec, bytes int, seed int64) ([]ThroughputRow, error) {
	kaby, cfg := cpu.I7_7700(), kernel.Config{KASLR: true}
	// leakCell leaks spec.secret on a machine of model booted from seed+j.
	leakCell := func(key string, model cpu.Model, j int64, name string, spec leakSpec, paperBps, paperErr float64) cell[ThroughputRow] {
		return cell[ThroughputRow]{key: key, model: model, cfg: cfg, seed: seed + j, run: func(k *kernel.Kernel) (ThroughputRow, error) {
			res, err := leak(k, spec)
			if err != nil {
				return ThroughputRow{}, fmt.Errorf("throughput %s: %w", name, err)
			}
			return byteRow(name, k.Machine().Model.Name, spec.secret, res, paperBps, paperErr), nil
		}}
	}
	return runCells(ex, "throughput", seed, []cell[ThroughputRow]{
		// TET-CC on i7-7700 (paper: 500 B/s, <5 % error).
		leakCell("tet-cc", kaby, 0, "TET-CC", leakSpec{family: "cc", secret: randomPayload(bytes, 1)}, 500, 0.05),
		// TET-MD on i7-7700 (paper: 50 B/s, <3 % error).
		leakCell("tet-md", kaby, 1, "TET-MD", leakSpec{family: "md", secret: randomPayload(bytes, 2)}, 50, 0.03),
		// TET-ZBL on i7-7700 (paper reports success but no rate).
		leakCell("tet-zbl", kaby, 2, "TET-ZBL", leakSpec{family: "zbl", secret: randomPayload(bytes, 3)}, 0, 0),
		// TET-RSB on i9-13900K (paper: 21.5 KB/s, <0.1 % error).
		leakCell("tet-rsb", cpu.I9_13900K(), 3, "TET-RSB",
			leakSpec{family: "rsb", secret: randomPayload(bytes, 4), rsbAt: 0x400}, 21500, 0.001),
		// SMT channel, both operating points, on i7-7700.
		{key: "smt-reliable", model: kaby, cfg: cfg, seed: seed + 4, run: func(k *kernel.Kernel) (ThroughputRow, error) {
			ch, err := smt.NewChannel(k, smt.ModeReliable)
			if err != nil {
				return ThroughputRow{}, err
			}
			payload := randomPayload(min(bytes, 4), 5) // second-scale windows
			res, err := ch.Transfer(payload)
			if err != nil {
				return ThroughputRow{}, fmt.Errorf("throughput SMT: %w", err)
			}
			return bitRow("SMT-CC (reliable)", k.Machine().Model.Name, payload, res, 1, 0.05), nil
		}},
		{key: "smt-secsmt", model: kaby, cfg: cfg, seed: seed + 5, run: func(k *kernel.Kernel) (ThroughputRow, error) {
			ch, err := smt.NewChannel(k, smt.ModeSecSMT)
			if err != nil {
				return ThroughputRow{}, err
			}
			payload := randomPayload(bytes, 6)
			res, err := ch.Transfer(payload)
			if err != nil {
				return ThroughputRow{}, fmt.Errorf("throughput SecSMT: %w", err)
			}
			return bitRow("SMT-CC (SecSMT eval)", k.Machine().Model.Name, payload, res, 268_000, 0.28), nil
		}},
		// Baselines for comparison.
		leakCell("baseline-fr", kaby, 6, "Flush+Reload CC (baseline)", leakSpec{family: "fr", secret: randomPayload(bytes, 7)}, 0, 0),
		leakCell("baseline-md-fr", kaby, 7, "Meltdown-F+R (baseline)", leakSpec{family: "md-fr", secret: randomPayload(bytes, 8)}, 0, 0),
	})
}

// RenderThroughput formats the §4.1 comparison.
func RenderThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§4.1/§4.4 channel throughput (measured vs paper)")
	fmt.Fprintf(&b, "%-28s %-22s %7s %14s %8s %-5s %12s %9s\n",
		"Channel", "CPU", "bytes", "B/s", "err", "kind", "paper B/s", "paperErr")
	for _, r := range rows {
		paperBps := "-"
		paperErr := "-"
		if r.PaperBps > 0 {
			paperBps = fmt.Sprintf("%.1f", r.PaperBps)
			paperErr = fmt.Sprintf("%.1f%%", r.PaperErr*100)
		}
		fmt.Fprintf(&b, "%-28s %-22s %7d %14.1f %7.1f%% %-5s %12s %9s\n",
			r.Name, r.CPU, r.Bytes, r.Bps, r.ErrRate*100, r.ErrKind, paperBps, paperErr)
	}
	return b.String()
}
