package experiments

import (
	"fmt"
	"strings"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

// Table2Row is one CPU's attack outcomes (paper Table 2).
type Table2Row struct {
	Model   cpu.Model
	CC      bool
	MD      bool
	ZBL     bool
	RSB     bool
	KASLR   bool
	ErrCC   float64
	ErrMD   float64
	ErrZBL  float64
	ErrRSB  float64
	Seconds float64 // KASLR scan time
}

// Table2Params sizes the per-attack workloads; the defaults favour bench
// speed, Full() the paper's payload sizes.
type Table2Params struct {
	CCBytes   int
	MDBytes   int
	ZBLBytes  int
	RSBBytes  int
	KASLRReps int
}

// DefaultTable2Params returns quick-but-conclusive sizes.
func DefaultTable2Params() Table2Params {
	return Table2Params{CCBytes: 8, MDBytes: 4, ZBLBytes: 4, RSBBytes: 4, KASLRReps: 4}
}

// successThreshold is the byte-error rate below which an attack counts as ✓.
// Working attacks measure ≤ a few percent; broken ones sit near 100 %.
const successThreshold = 0.25

// Table2 runs every attack on every Table 2 model. Each (model, attack)
// pair is one scheduler cell on a machine of its own, so no worker waits on
// another model's row. Cells are submitted row-major, the order a serial
// loop meets them, so the reported error is the one that loop would hit
// first; each cell fills only its own columns of its model's row.
func Table2(ex Exec, params Table2Params, seed int64) ([]Table2Row, error) {
	models := cpu.AllModels()
	rows := make([]Table2Row, len(models))
	cells := make([]cell[struct{}], 0, len(models)*len(table2Attacks))
	for i, model := range models {
		row := &rows[i]
		row.Model = model
		for j, a := range table2Attacks {
			cells = append(cells, cell[struct{}]{
				key: model.Name + "/" + a.name, model: model, cfg: kernel.Config{KASLR: true}, seed: seed + int64(j),
				run: func(k *kernel.Kernel) (struct{}, error) {
					if err := a.run(k, params, row); err != nil {
						return struct{}{}, fmt.Errorf("table2 %s %s: %w", model.Name, a.name, err)
					}
					return struct{}{}, nil
				},
			})
		}
	}
	if _, err := runCells(ex, "table2", seed, cells); err != nil {
		return nil, err
	}
	return rows, nil
}

// table2Attacks are Table 2's attack columns in row order. Each runs on a
// fresh machine, so one attack's microarchitectural residue cannot help
// another; attack j boots from seed+j, the offsets of the original serial
// implementation, so a sweep's output matches it byte for byte.
var table2Attacks = []struct {
	name string
	run  func(k *kernel.Kernel, params Table2Params, row *Table2Row) error
}{
	{"CC", table2Leak("cc")},
	{"MD", table2Leak("md")},
	{"ZBL", table2Leak("zbl")},
	{"RSB", table2Leak("rsb")},
	{"KASLR", table2KASLR},
}

// table2Secret is the payload the leak attacks recover.
var table2Secret = []byte("Whisper: timing the transient execution!")

// table2Leak is the leak column of family: it plants table2Secret, leaks
// the column's share of it and records the column's error rate and verdict.
func table2Leak(family string) func(*kernel.Kernel, Table2Params, *Table2Row) error {
	return func(k *kernel.Kernel, params Table2Params, row *Table2Row) error {
		spec := leakSpec{family: family, plant: table2Secret, rsbAt: 0x300}
		var n int
		var works *bool
		var errRate *float64
		switch family {
		case "cc":
			n, works, errRate = params.CCBytes, &row.CC, &row.ErrCC
		case "md":
			n, works, errRate, spec.batches = params.MDBytes, &row.MD, &row.ErrMD, 3
		case "zbl":
			n, works, errRate, spec.batches = params.ZBLBytes, &row.ZBL, &row.ErrZBL, 3
		case "rsb":
			n, works, errRate, spec.batches = params.RSBBytes, &row.RSB, &row.ErrRSB, 2
		}
		spec.secret = table2Secret[:n]
		res, err := leak(k, spec)
		if err != nil {
			return err
		}
		*errRate = stats.ByteErrorRate(res.Data, spec.secret)
		*works = *errRate <= successThreshold
		return nil
	}
}

func table2KASLR(k *kernel.Kernel, params Table2Params, row *Table2Row) error {
	res, err := locate(k, params.KASLRReps, false)
	if err != nil {
		return err
	}
	row.KASLR = res.Slot == k.BaseSlot()
	row.Seconds = res.Seconds
	return nil
}

// PaperTable2 is the published ✓/✗ matrix ("?" cells are recorded as the
// value our reproduction measures, per EXPERIMENTS.md).
var PaperTable2 = map[string]map[string]string{
	"Intel Core i7-6700":    {"CC": "✓", "MD": "✓", "ZBL": "✓", "RSB": "✓", "KASLR": "✓"},
	"Intel Core i7-7700":    {"CC": "✓", "MD": "✓", "ZBL": "✓", "RSB": "✓", "KASLR": "✓"},
	"Intel Core i9-10980XE": {"CC": "✓", "MD": "✗", "ZBL": "✗", "RSB": "?", "KASLR": "✓"},
	"Intel Core i9-13900K":  {"CC": "✓", "MD": "✗", "ZBL": "✗", "RSB": "✓", "KASLR": "?"},
	"AMD Ryzen 5 5600G":     {"CC": "✓", "MD": "✗", "ZBL": "✗", "RSB": "?", "KASLR": "✗"},
}

// RenderTable2 formats the measured matrix side by side with the paper's.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: Environment and experiments (measured | paper)")
	fmt.Fprintf(&b, "%-24s %-12s %-11s %-11s %-8s %-8s %-8s %-8s %-10s\n",
		"CPU", "uarch", "ucode", "kernel", "CC", "MD", "ZBL", "RSB", "KASLR")
	for _, r := range rows {
		p := PaperTable2[r.Model.Name]
		cell := func(got bool, key string) string {
			return fmt.Sprintf("%s|%s", check(got), p[key])
		}
		fmt.Fprintf(&b, "%-24s %-12s %-11s %-11s %-8s %-8s %-8s %-8s %-10s\n",
			r.Model.Name, r.Model.Microarch, r.Model.Microcode, r.Model.Kernel,
			cell(r.CC, "CC"), cell(r.MD, "MD"), cell(r.ZBL, "ZBL"),
			cell(r.RSB, "RSB"), cell(r.KASLR, "KASLR"))
	}
	return b.String()
}

// Table2Agrees reports whether the measured matrix matches the paper on
// every non-"?" cell.
func Table2Agrees(rows []Table2Row) (bool, []string) {
	var diffs []string
	for _, r := range rows {
		p := PaperTable2[r.Model.Name]
		for key, got := range map[string]bool{
			"CC": r.CC, "MD": r.MD, "ZBL": r.ZBL, "RSB": r.RSB, "KASLR": r.KASLR,
		} {
			want := p[key]
			if want == "?" {
				continue
			}
			if check(got) != want {
				diffs = append(diffs, fmt.Sprintf("%s %s: measured %s, paper %s",
					r.Model.Name, key, check(got), want))
			}
		}
	}
	return len(diffs) == 0, diffs
}
