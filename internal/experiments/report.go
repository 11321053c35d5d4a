package experiments

import (
	"context"
	"encoding/json"
	"io"

	"whisper/internal/sched"
)

// Report bundles every experiment's results for machine-readable output
// (cmd/tetbench -json).
type Report struct {
	Seed             int64
	Table2           []Table2Row
	Table2Agrees     bool
	Table2Deviations []string `json:",omitempty"`
	Table3           []Table3Scene
	Fig1b            *Fig1bResult
	Fig4             []Fig4Point
	Throughput       []ThroughputRow
	KASLR            []KASLRRow
	Mitigations      []MitigationRow
	MitigationsAgree bool
	Stealth          []StealthRow
	CondFamily       []CondRow
	NoiseSweep       []NoisePoint
}

// artefact is one experiment of the paper's evaluation: run computes its
// result from the sweep parameters and render turns that result into the
// text the CLI prints. fill, set on the artefacts a Report bundles, stores
// the result in its Report field.
type artefact struct {
	name   string
	run    func(Exec, SweepParams) (any, error)
	render func(any) string
	fill   func(*Report, any)
}

// define builds an artefact from functions typed by its result T.
func define[T any](name string, run func(Exec, SweepParams) (T, error), render func(T) string, fill func(*Report, T)) artefact {
	a := artefact{
		name:   name,
		run:    func(ex Exec, p SweepParams) (any, error) { return run(ex, p) },
		render: func(v any) string { return render(v.(T)) },
	}
	if fill != nil {
		a.fill = func(r *Report, v any) { fill(r, v.(T)) }
	}
	return a
}

// artefacts is the paper's evaluation in paper order and the only list of
// experiments: RunSweep serves each by name, RunAll bundles the ten with a
// Report field, and cmd/tetbench prints them all.
var artefacts = []artefact{
	define("table1", func(Exec, SweepParams) (string, error) { return Table1(), nil },
		func(t string) string { return t }, nil),
	define("table2", func(ex Exec, p SweepParams) ([]Table2Row, error) {
		return Table2(ex, DefaultTable2Params(), p.Seed)
	}, RenderTable2, func(r *Report, rows []Table2Row) {
		r.Table2 = rows
		r.Table2Agrees, r.Table2Deviations = Table2Agrees(rows)
	}),
	define("table3", func(ex Exec, p SweepParams) ([]Table3Scene, error) { return Table3(ex, p.Seed) },
		RenderTable3, func(r *Report, scenes []Table3Scene) { r.Table3 = scenes }),
	define("fig1b", func(ex Exec, p SweepParams) (*Fig1bResult, error) { return Fig1b(ex, p.Fig1bBatches, p.Seed) },
		(*Fig1bResult).Render, func(r *Report, res *Fig1bResult) { r.Fig1b = res }),
	define("fig3", func(ex Exec, p SweepParams) (Table3Scene, error) { return fig3(ex, p.Seed) },
		func(s Table3Scene) string { return RenderTable3([]Table3Scene{s}) }, nil),
	define("fig4", func(ex Exec, p SweepParams) ([]Fig4Point, error) { return Fig4(ex, p.Seed) },
		RenderFig4, func(r *Report, pts []Fig4Point) { r.Fig4 = pts }),
	define("throughput", func(ex Exec, p SweepParams) ([]ThroughputRow, error) {
		return Throughput(ex, p.ThroughputBytes, p.Seed)
	}, RenderThroughput, func(r *Report, rows []ThroughputRow) { r.Throughput = rows }),
	define("kaslr", func(ex Exec, p SweepParams) ([]KASLRRow, error) { return KASLRSuite(ex, p.KASLRReps, p.Seed) },
		RenderKASLRSuite, func(r *Report, rows []KASLRRow) { r.KASLR = rows }),
	define("mitigations", func(ex Exec, p SweepParams) ([]MitigationRow, error) { return Mitigations(ex, p.Seed) },
		RenderMitigations, func(r *Report, rows []MitigationRow) {
			r.Mitigations = rows
			r.MitigationsAgree, _ = MitigationsAgree(rows)
		}),
	define("stealth", func(ex Exec, p SweepParams) ([]StealthRow, error) { return Stealth(ex, p.Seed) },
		RenderStealth, func(r *Report, rows []StealthRow) { r.Stealth = rows }),
	define("condfamily", func(ex Exec, p SweepParams) ([]CondRow, error) { return CondFamily(ex, p.Seed) },
		RenderCondFamily, func(r *Report, rows []CondRow) { r.CondFamily = rows }),
	define("noise", func(ex Exec, p SweepParams) ([]NoisePoint, error) { return NoiseSweep(ex, p.Seed) },
		RenderNoiseSweep, func(r *Report, pts []NoisePoint) { r.NoiseSweep = pts }),
}

// RunAll runs every artefact the Report bundles and returns the bundle. The
// artefacts are themselves jobs of one sched pool ("experiments"), so whole
// sweeps overlap in addition to the per-cell parallelism inside each; the
// results fill the Report in table order, so it is byte-identical at any
// Exec.Parallel. p is used as given; RunSweep("report") normalizes it first.
func RunAll(ex Exec, p SweepParams) (*Report, error) {
	var bundled []artefact
	var jobs []sched.Job[any]
	for _, a := range artefacts {
		if a.fill == nil {
			continue
		}
		bundled = append(bundled, a)
		jobs = append(jobs, sched.Job[any]{Key: a.name, Run: func(context.Context, int64) (any, error) {
			return a.run(ex, p)
		}})
	}
	results, err := sched.Map(ex.ctx(), ex.opts("experiments", p.Seed), jobs)
	if err != nil {
		return nil, err
	}
	r := &Report{Seed: p.Seed}
	for i, a := range bundled {
		a.fill(r, results[i])
	}
	return r, nil
}

// WriteJSON encodes the report (indented) to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
