package experiments

import (
	"context"
	"fmt"
	"strings"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/sched"
	"whisper/internal/smt"
	"whisper/internal/stats"
)

// attackOrder is the canonical family order: the blocks always print in this
// sequence, so the suite's output is byte-identical at any Exec.Parallel.
var attackOrder = []string{"cc", "md", "zbl", "rsb", "v1", "kaslr", "smt"}

// AttackNames returns every attack family AttackSuite can run, in the order
// their blocks print.
func AttackNames() []string {
	return append([]string(nil), attackOrder...)
}

// AttackSuite runs the selected attack families (nil or empty only = all) on
// the given model and kernel config, planting secret as the victim data, and
// returns the concatenated per-attack report blocks — the body of
// `whisper -all`. Each family is one scheduler job booting its own machine
// from sched.DeriveSeed(rootSeed, family), so a block's bytes depend only on
// (model, cfg, secret, rootSeed, family): filtering families or changing
// Exec.Parallel never changes any block that is produced.
func AttackSuite(ex Exec, model cpu.Model, cfg kernel.Config, secret []byte, rootSeed int64, only []string) (string, error) {
	selected, err := selectAttacks(only)
	if err != nil {
		return "", err
	}
	want := secret
	report := func(b *strings.Builder, m *cpu.Machine, name string, res core.LeakResult) {
		fmt.Fprintf(b, "%s leaked %q\n", name, res.Data)
		fmt.Fprintf(b, "  throughput %.1f B/s, byte error rate %.1f%%, %d simulated cycles (%.4fs at %.1f GHz)\n",
			res.Bps, stats.ByteErrorRate(res.Data, want)*100, res.Cycles,
			m.Seconds(res.Cycles), model.ClockHz/1e9)
	}
	runners := map[string]func(ctx context.Context, seed int64) (string, error){
		"cc": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			a, err := core.NewTETCovertChannel(k)
			if err != nil {
				return "", err
			}
			res, err := a.Transfer(want)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			report(&b, k.Machine(), "TET covert channel", res)
			return b.String(), nil
		},
		"md": func(jctx context.Context, seed int64) (string, error) {
			// The multi-byte Meltdown leak shards across per-byte machine
			// replicas (core.Farm); its inner pool shares the run's
			// parallelism budget.
			f := &core.Farm{
				Model: model, Config: cfg, RootSeed: seed,
				Parallel: ex.Parallel, Ctx: jctx, Obs: ex.Obs,
			}
			res, err := f.LeakSecret(want)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "TET-Meltdown (replica farm) leaked %q\n", res.Data)
			fmt.Fprintf(&b, "  critical path %d simulated cycles (%.1f B/s at %.1f GHz), byte error rate %.1f%%\n",
				res.Cycles, res.Bps, model.ClockHz/1e9, stats.ByteErrorRate(res.Data, want)*100)
			return b.String(), nil
		},
		"zbl": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			k.WriteSecret(want)
			a, err := core.NewTETZombieload(k)
			if err != nil {
				return "", err
			}
			res, err := a.Leak(len(want))
			if err != nil {
				return "", err
			}
			var b strings.Builder
			report(&b, k.Machine(), "TET-Zombieload", res)
			return b.String(), nil
		},
		"rsb": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			secretVA := uint64(kernel.UserDataBase + 0x500)
			pa, ok := k.UserAS().Translate(secretVA)
			if !ok {
				return "", fmt.Errorf("secret VA unmapped")
			}
			k.Machine().Phys.StoreBytes(pa, want)
			a, err := core.NewTETRSB(k)
			if err != nil {
				return "", err
			}
			res, err := a.Leak(secretVA, len(want))
			if err != nil {
				return "", err
			}
			var b strings.Builder
			report(&b, k.Machine(), "TET-Spectre-RSB", res)
			return b.String(), nil
		},
		"v1": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			v1, err := core.NewTETSpectreV1(k)
			if err != nil {
				return "", err
			}
			pa, ok := k.UserAS().Translate(v1.ArrayVA() + v1.ArrayLen())
			if !ok {
				return "", fmt.Errorf("V1 secret region unmapped")
			}
			k.Machine().Phys.StoreBytes(pa, want)
			res, err := v1.Leak(v1.ArrayLen(), len(want))
			if err != nil {
				return "", err
			}
			var b strings.Builder
			report(&b, k.Machine(), "TET-Spectre-V1 (extension)", res)
			return b.String(), nil
		},
		"kaslr": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			a, err := core.NewTETKASLR(k)
			if err != nil {
				return "", err
			}
			res, err := a.Locate()
			if err != nil {
				return "", err
			}
			verdict := "WRONG"
			if res.Base == k.KASLRBase() {
				verdict = "correct"
			}
			return fmt.Sprintf("TET-KASLR recovered base %#x (slot %d) in %.4f s — %s\n",
				res.Base, res.Slot, res.Seconds, verdict), nil
		},
		"smt": func(_ context.Context, seed int64) (string, error) {
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			a, err := smt.NewChannel(k, smt.ModeReliable)
			if err != nil {
				return "", err
			}
			payload := want
			if len(payload) > 4 {
				payload = payload[:4]
			}
			res, err := a.Transfer(payload)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("SMT covert channel received %q (%.2f B/s, bit error %.1f%%)\n",
				res.Data, res.Bps, stats.BitErrorRate(res.Data, payload)*100), nil
		},
	}
	jobs := make([]sched.Job[string], 0, len(selected))
	for _, name := range selected {
		jobs = append(jobs, sched.Job[string]{Key: name, Run: runners[name]})
	}
	outs, err := sched.Map(ex.ctx(), sched.Options{
		Name: "attacks", Parallel: ex.Parallel, RootSeed: rootSeed, Obs: ex.Obs,
	}, jobs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, o := range outs {
		b.WriteString(o)
	}
	return b.String(), nil
}

// selectAttacks validates the filter and returns it in canonical block order.
func selectAttacks(only []string) ([]string, error) {
	if len(only) == 0 {
		return attackOrder, nil
	}
	asked := make(map[string]bool, len(only))
	for _, name := range only {
		found := false
		for _, known := range attackOrder {
			if name == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown attack %q (have %v)", name, attackOrder)
		}
		asked[name] = true
	}
	var sel []string
	for _, name := range attackOrder {
		if asked[name] {
			sel = append(sel, name)
		}
	}
	return sel, nil
}
