package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// NoisePoint is one operating point of the noise-sensitivity sweep.
type NoisePoint struct {
	Sigma     float64 // RDTSC jitter stddev, cycles
	Batches   int     // vote batches the attack used
	Decoder   string  // "vote" (the paper's) or "mean"
	ErrRate   float64
	Recovered bool
}

// NoiseSweep measures TET-MD's error rate as measurement noise grows, with
// and without extra vote batches — the robustness dimension behind the
// paper's "<3 % error in a real (noisy) environment" claim. The TET signal
// is only a handful of cycles, so the argmax vote across batches is what
// carries the attack once jitter rivals the signal.
func NoiseSweep(ex Exec, seed int64) ([]NoisePoint, error) {
	points := []struct {
		sigma   float64
		batches int
		mean    bool
	}{
		{0, 3, false},
		{1.2, 3, false},
		{3, 3, false},
		{3, 9, false},
		{3, 21, true},
		{6, 21, true},
	}
	cells := make([]cell[NoisePoint], len(points))
	for i, pt := range points {
		model := cpu.I7_7700()
		model.Pipe.NoiseSigma = pt.sigma
		cells[i] = cell[NoisePoint]{key: fmt.Sprintf("sigma/%.1f/batches/%d", pt.sigma, pt.batches),
			model: model, cfg: kernel.Config{KASLR: true}, seed: seed,
			run: func(k *kernel.Kernel) (NoisePoint, error) { return noisePoint(k, pt.sigma, pt.batches, pt.mean) }}
	}
	return runCells(ex, "noise", seed, cells)
}

// noisePoint measures one (sigma, batches, decoder) operating point on k, a
// machine whose RDTSC jitter is sigma.
func noisePoint(k *kernel.Kernel, sigma float64, batches int, mean bool) (NoisePoint, error) {
	secret := []byte("NZ")
	res, err := leak(k, leakSpec{family: "md", secret: secret, batches: batches, median: mean})
	if err != nil {
		return NoisePoint{}, err
	}
	decoder := "vote"
	if mean {
		decoder = "median"
	}
	er := stats.ByteErrorRate(res.Data, secret)
	return NoisePoint{
		Sigma:     sigma,
		Batches:   batches,
		Decoder:   decoder,
		ErrRate:   er,
		Recovered: er <= successThreshold,
	}, nil
}

// RenderNoiseSweep formats the sweep.
func RenderNoiseSweep(points []NoisePoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Noise sensitivity: TET-MD error rate vs RDTSC jitter (i7-7700)")
	fmt.Fprintf(&b, "%10s %9s %8s %9s %10s\n", "sigma", "batches", "decoder", "err", "recovered")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.1f %9d %8s %8.1f%% %10s\n",
			p.Sigma, p.Batches, p.Decoder, p.ErrRate*100, check(p.Recovered))
	}
	return b.String()
}
