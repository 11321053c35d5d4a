package experiments

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"whisper/internal/obs/logging"
)

// SweepParams sizes one sweep invocation: everything that changes a sweep's
// *result* lives here, while execution knobs that provably do not (worker
// count, context, telemetry) stay on Exec. That split is what makes sweep
// results content-addressable — internal/server hashes (sweep name,
// SweepParams) and nothing else.
type SweepParams struct {
	Seed            int64 `json:"seed"`
	ThroughputBytes int   `json:"throughput_bytes,omitempty"`
	KASLRReps       int   `json:"kaslr_reps,omitempty"`
	Fig1bBatches    int   `json:"fig1b_batches,omitempty"`
}

// DefaultSweepParams returns the bench-friendly sizes zero fields normalize
// to.
func DefaultSweepParams() SweepParams {
	return SweepParams{Seed: DefaultSeed, ThroughputBytes: 16, KASLRReps: 8, Fig1bBatches: 5}
}

// Normalize fills zero fields with the defaults, returning the canonical
// form: two requests that mean the same sweep normalize to equal structs.
func (p SweepParams) Normalize() SweepParams {
	d := DefaultSweepParams()
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.ThroughputBytes <= 0 {
		p.ThroughputBytes = d.ThroughputBytes
	}
	if p.KASLRReps <= 0 {
		p.KASLRReps = d.KASLRReps
	}
	if p.Fig1bBatches <= 0 {
		p.Fig1bBatches = d.Fig1bBatches
	}
	return p
}

// SweepResult is one sweep's output in both machine and human form. Result
// holds the structured rows/points/scenes (JSON-encodable, deterministic),
// Rendered the same text table the CLI prints.
type SweepResult struct {
	Name     string
	Result   any
	Rendered string
}

// Artefacts returns the name of every artefact of the paper's evaluation,
// in paper order: the names cmd/tetbench -exp takes.
func Artefacts() []string {
	names := make([]string, len(artefacts))
	for i, a := range artefacts {
		names[i] = a.name
	}
	return names
}

// Sweeps returns every servable sweep name, sorted: the artefacts plus
// "report", RunAll's bundle of them.
func Sweeps() []string {
	names := append(Artefacts(), "report")
	slices.Sort(names)
	return names
}

// reportSweep serves RunAll's bundle; it has no text rendering.
var reportSweep = define("report", RunAll, func(*Report) string { return "" }, nil)

// RunSweep executes the named sweep (an artefact, or "report") with
// normalized params, returning its result and the text cmd/tetbench prints
// for it. The result is a pure function of (name, p.Normalize()): Exec only
// changes wall-clock.
func RunSweep(ex Exec, name string, p SweepParams) (SweepResult, error) {
	i := slices.IndexFunc(artefacts, func(e artefact) bool { return e.name == name })
	a := reportSweep
	switch {
	case i >= 0:
		a = artefacts[i]
	case name != a.name:
		return SweepResult{}, fmt.Errorf("experiments: unknown sweep %q (have %v)", name, Sweeps())
	}
	p = p.Normalize()
	ctx := ex.ctx()
	if log := logging.From(ctx); log.Enabled(ctx, slog.LevelDebug) {
		log.LogAttrs(ctx, slog.LevelDebug, "sweep started",
			slog.String("sweep", name), slog.Int64("seed", p.Seed),
			slog.Int("parallel", ex.Parallel))
	}
	start := time.Now()
	res, err := a.run(ex, p)
	if err != nil {
		logging.From(ctx).LogAttrs(ctx, slog.LevelError, "sweep failed",
			slog.String("sweep", name), slog.Int64("seed", p.Seed),
			slog.Duration("dur", time.Since(start)), slog.String("error", err.Error()))
		return SweepResult{}, err
	}
	if log := logging.From(ctx); log.Enabled(ctx, slog.LevelDebug) {
		log.LogAttrs(ctx, slog.LevelDebug, "sweep finished",
			slog.String("sweep", name), slog.Int64("seed", p.Seed),
			slog.Duration("dur", time.Since(start)))
	}
	return SweepResult{Name: name, Result: res, Rendered: a.render(res)}, nil
}
