package experiments

import (
	"context"
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/sched"
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

// Table2 runs every attack on every Table 2 model. Each model is one
// scheduler cell: the five machines a row boots are independent of every
// other row's, so rows run concurrently and collect in model order.
func Table2(ex Exec, params Table2Params, seed int64) ([]Table2Row, error) {
	models := cpu.AllModels()
	jobs := make([]sched.Job[Table2Row], len(models))
	for i, model := range models {
		model := model
		jobs[i] = sched.Job[Table2Row]{
			Key: model.Name,
			Run: func(context.Context, int64) (Table2Row, error) {
				return table2Row(model, params, seed)
			},
		}
	}
	return sched.Map(ex.ctx(), ex.opts("table2", seed), jobs)
}

// table2Row runs the five attack families on one model. The per-attack seed
// offsets (seed..seed+4) predate the scheduler and are kept verbatim so a
// sweep's output matches the original serial implementation byte for byte.
func table2Row(model cpu.Model, params Table2Params, seed int64) (Table2Row, error) {
	secret := []byte("Whisper: timing the transient execution!")
	row := Table2Row{Model: model}
	fail := func(err error) (Table2Row, error) { return Table2Row{}, err }

	// Fresh machine per attack family so one attack's microarchitectural
	// residue cannot help another.
	{
		k, err := boot(model, kernel.Config{KASLR: true}, seed)
		if err != nil {
			return fail(err)
		}
		defer recycle(k)
		cc, err := core.NewTETCovertChannel(k)
		if err != nil {
			return fail(err)
		}
		payload := secret[:params.CCBytes]
		res, err := cc.Transfer(payload)
		if err != nil {
			return fail(fmt.Errorf("table2 %s CC: %w", model.Name, err))
		}
		row.ErrCC = stats.ByteErrorRate(res.Data, payload)
		row.CC = row.ErrCC <= successThreshold
	}
	{
		k, err := boot(model, kernel.Config{KASLR: true}, seed+1)
		if err != nil {
			return fail(err)
		}
		defer recycle(k)
		k.WriteSecret(secret)
		md, err := NewQuickMD(k)
		if err != nil {
			return fail(err)
		}
		res, err := md.Leak(k.SecretVA(), params.MDBytes)
		if err != nil {
			return fail(fmt.Errorf("table2 %s MD: %w", model.Name, err))
		}
		row.ErrMD = stats.ByteErrorRate(res.Data, secret[:params.MDBytes])
		row.MD = row.ErrMD <= successThreshold
	}
	{
		k, err := boot(model, kernel.Config{KASLR: true}, seed+2)
		if err != nil {
			return fail(err)
		}
		defer recycle(k)
		k.WriteSecret(secret)
		z, err := core.NewTETZombieload(k)
		if err != nil {
			return fail(err)
		}
		z.Batches = 3
		res, err := z.Leak(params.ZBLBytes)
		if err != nil {
			return fail(fmt.Errorf("table2 %s ZBL: %w", model.Name, err))
		}
		row.ErrZBL = stats.ByteErrorRate(res.Data, secret[:params.ZBLBytes])
		row.ZBL = row.ErrZBL <= successThreshold
	}
	{
		k, err := boot(model, kernel.Config{KASLR: true}, seed+3)
		if err != nil {
			return fail(err)
		}
		defer recycle(k)
		m := k.Machine()
		secretVA := uint64(kernel.UserDataBase + 0x300)
		pa, _ := k.UserAS().Translate(secretVA)
		m.Phys.StoreBytes(pa, secret)
		rsb, err := core.NewTETRSB(k)
		if err != nil {
			return fail(err)
		}
		rsb.Batches = 2
		res, err := rsb.Leak(secretVA, params.RSBBytes)
		if err != nil {
			return fail(fmt.Errorf("table2 %s RSB: %w", model.Name, err))
		}
		row.ErrRSB = stats.ByteErrorRate(res.Data, secret[:params.RSBBytes])
		row.RSB = row.ErrRSB <= successThreshold
	}
	{
		k, err := boot(model, kernel.Config{KASLR: true}, seed+4)
		if err != nil {
			return fail(err)
		}
		defer recycle(k)
		ka, err := core.NewTETKASLR(k)
		if err != nil {
			return fail(err)
		}
		ka.Reps = params.KASLRReps
		res, err := ka.Locate()
		if err != nil {
			return fail(fmt.Errorf("table2 %s KASLR: %w", model.Name, err))
		}
		row.KASLR = res.Slot == k.BaseSlot()
		row.Seconds = res.Seconds
	}
	return row, nil
}

// NewQuickMD builds a TET-Meltdown with bench-friendly batch count.
func NewQuickMD(k *kernel.Kernel) (*core.Meltdown, error) {
	md, err := core.NewTETMeltdown(k)
	if err != nil {
		return nil, err
	}
	md.Batches = 3
	return md, nil
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
