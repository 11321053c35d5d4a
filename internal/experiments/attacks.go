package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"whisper/internal/baseline"
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
// Exec.Parallel never changes any block that is produced. Every block is
// RunAttack's on that machine, except md's, which is the multi-byte
// core.Farm replica leak.
func AttackSuite(ex Exec, model cpu.Model, cfg kernel.Config, secret []byte, rootSeed int64, only []string) (string, error) {
	selected, err := SelectAttacks(only)
	if err != nil {
		return "", err
	}
	if selected == nil {
		selected = attackOrder
	}
	jobs := make([]sched.Job[string], 0, len(selected))
	for _, name := range selected {
		jobs = append(jobs, sched.Job[string]{Key: name, Run: func(jctx context.Context, seed int64) (string, error) {
			if name == "md" {
				return farmMeltdown(jctx, ex, model, cfg, secret, seed)
			}
			k, err := boot(model, cfg, seed)
			if err != nil {
				return "", err
			}
			defer recycle(k)
			return RunAttack(k, name, secret)
		}})
	}
	outs, err := sched.Map(ex.ctx(), ex.opts("attacks", rootSeed), jobs)
	if err != nil {
		return "", err
	}
	return strings.Join(outs, ""), nil
}

// farmMeltdown is the suite's md block: the multi-byte Meltdown leak sharded
// across per-byte machine replicas (core.Farm), whose inner pool shares the
// run's parallelism budget.
func farmMeltdown(ctx context.Context, ex Exec, model cpu.Model, cfg kernel.Config, secret []byte, seed int64) (string, error) {
	f := &core.Farm{
		Model: model, Config: cfg, RootSeed: seed,
		Parallel: ex.Parallel, Ctx: ctx, Obs: ex.Obs,
	}
	res, err := f.LeakSecret(secret)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("TET-Meltdown (replica farm) leaked %q\n", res.Data) +
		fmt.Sprintf("  critical path %d simulated cycles (%.1f B/s at %.1f GHz), byte error rate %.1f%%\n",
			res.Cycles, res.Bps, model.ClockHz/1e9, stats.ByteErrorRate(res.Data, secret)*100), nil
}

// RunAttack plants secret where the family reads it, runs that family on
// the booted kernel k, and returns the family's report block. It is the one
// implementation of every family: `whisper -attack` calls it on the machine
// it boots itself, and AttackSuite on each cell's machine. k stays the
// caller's; RunAttack neither recycles nor reboots it.
func RunAttack(k *kernel.Kernel, family string, secret []byte) (string, error) {
	switch family {
	case "cc", "md", "zbl", "rsb", "v1":
		res, err := leak(k, leakSpec{family: family, secret: secret, rsbAt: 0x500})
		if err != nil {
			return "", err
		}
		m := k.Machine()
		return fmt.Sprintf("%s leaked %q\n", leakTitles[family], res.Data) +
			fmt.Sprintf("  throughput %.1f B/s, byte error rate %.1f%%, %d simulated cycles (%.4fs at %.1f GHz)\n",
				res.Bps, stats.ByteErrorRate(res.Data, secret)*100, res.Cycles,
				m.Seconds(res.Cycles), m.Model.ClockHz/1e9), nil
	case "kaslr":
		res, err := locate(k, 0, false)
		if err != nil {
			return "", err
		}
		verdict := "WRONG"
		if res.Base == k.KASLRBase() {
			verdict = "correct"
		}
		return fmt.Sprintf("TET-KASLR recovered base %#x (slot %d) in %.4f s — %s\n",
			res.Base, res.Slot, res.Seconds, verdict), nil
	case "smt":
		a, err := smt.NewChannel(k, smt.ModeReliable)
		if err != nil {
			return "", err
		}
		payload := secret[:min(len(secret), 4)]
		res, err := a.Transfer(payload)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SMT covert channel received %q (%.2f B/s, bit error %.1f%%)\n",
			res.Data, res.Bps, stats.BitErrorRate(res.Data, payload)*100), nil
	}
	return "", unknownAttack(family)
}

// leakTitles names each leak family in its RunAttack report block.
var leakTitles = map[string]string{
	"cc":  "TET covert channel",
	"md":  "TET-Meltdown",
	"zbl": "TET-Zombieload",
	"rsb": "TET-Spectre-RSB",
	"v1":  "TET-Spectre-V1 (extension)",
}

// leakSpec is one plant-and-leak run. The sweeps that leak differ only in
// this data.
type leakSpec struct {
	// family is cc, md, zbl, rsb or v1, or a cache-channel baseline: fr
	// (Flush+Reload) or md-fr (Meltdown with a Flush+Reload probe array).
	family string
	// secret is the bytes to recover: sent through the channel for cc and
	// fr, planted where the family reads it for the others.
	secret []byte
	// plant, when set, is planted instead of secret, which is then its
	// prefix (Table 2 plants its whole sentence and recovers a few bytes).
	plant []byte
	// rsbAt is where rsb plants: the offset from kernel.UserDataBase.
	rsbAt uint64
	// batches overrides the TET families' vote batches when > 0.
	batches int
	// median selects md's per-value median decode.
	median bool
}

// leak plants s.secret where s.family reads it, builds the attack on k and
// leaks the secret back. It is the one plant-and-leak path: RunAttack,
// Table 2, Throughput, Mitigations and Noise all leak through it (Stealth,
// which samples a detector after each byte, calls core.LeakBytes itself).
// Each family keeps its order of operations, which fixes the machine's RNG
// stream: md, md-fr, zbl and rsb plant before they construct; v1 constructs
// first (its constructor writes the array length), then plants.
func leak(k *kernel.Kernel, s leakSpec) (core.LeakResult, error) {
	n, plant := len(s.secret), s.plant
	if plant == nil {
		plant = s.secret
	}
	switch s.family {
	case "cc":
		a, err := core.NewTETCovertChannel(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		return a.Transfer(s.secret)
	case "fr":
		a, err := baseline.NewFlushReload(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		return a.Transfer(s.secret)
	case "md":
		k.WriteSecret(plant)
		a, err := core.NewTETMeltdown(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		override(&a.Batches, s.batches)
		a.MedianDecode = s.median
		return a.Leak(k.SecretVA(), n)
	case "md-fr":
		k.WriteSecret(plant)
		a, err := baseline.NewMeltdownFR(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		return a.Leak(k.SecretVA(), n)
	case "zbl":
		k.WriteSecret(plant)
		a, err := core.NewTETZombieload(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		override(&a.Batches, s.batches)
		return a.Leak(n)
	case "rsb":
		va := kernel.UserDataBase + s.rsbAt
		if err := plantUser(k, va, plant); err != nil {
			return core.LeakResult{}, err
		}
		a, err := core.NewTETRSB(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		override(&a.Batches, s.batches)
		return a.Leak(va, n)
	case "v1":
		a, err := core.NewTETSpectreV1(k)
		if err != nil {
			return core.LeakResult{}, err
		}
		if err := plantUser(k, a.ArrayVA()+a.ArrayLen(), plant); err != nil {
			return core.LeakResult{}, err
		}
		override(&a.Batches, s.batches)
		return a.Leak(a.ArrayLen(), n)
	}
	return core.LeakResult{}, fmt.Errorf("experiments: no leak family %q", s.family)
}

// locate finds the kernel base on k with TET-KASLR, or with the
// prefetch-timing baseline when prefetch is set, at reps rounds per slot
// when reps > 0 (the scan's own default otherwise). It is the one KASLR
// path: RunAttack, Table 2 and every §4.5 suite row locate through it.
func locate(k *kernel.Kernel, reps int, prefetch bool) (core.KASLRResult, error) {
	if prefetch {
		a, err := baseline.NewPrefetchKASLR(k)
		if err != nil {
			return core.KASLRResult{}, err
		}
		override(&a.Reps, reps)
		return a.Locate()
	}
	a, err := core.NewTETKASLR(k)
	if err != nil {
		return core.KASLRResult{}, err
	}
	override(&a.Reps, reps)
	return a.Locate()
}

// plantUser stores secret at the attacker-process address va.
func plantUser(k *kernel.Kernel, va uint64, secret []byte) error {
	pa, ok := k.UserAS().Translate(va)
	if !ok {
		return fmt.Errorf("experiments: secret VA %#x unmapped", va)
	}
	k.Machine().Phys.StoreBytes(pa, secret)
	return nil
}

// override replaces an attack's default vote batches or scan rounds with n
// when n > 0.
func override(setting *int, n int) {
	if n > 0 {
		*setting = n
	}
}

// SelectAttacks validates an attack filter and returns it in block order.
// A nil or empty filter and one naming every family both select the whole
// suite; SelectAttacks returns nil for it, the one canonical spelling of
// "every family" that a served request hashes under.
func SelectAttacks(only []string) ([]string, error) {
	asked := make(map[string]bool, len(only))
	for _, name := range only {
		if !slices.Contains(attackOrder, name) {
			return nil, unknownAttack(name)
		}
		asked[name] = true
	}
	if len(asked) == 0 || len(asked) == len(attackOrder) {
		return nil, nil
	}
	var sel []string
	for _, name := range attackOrder {
		if asked[name] {
			sel = append(sel, name)
		}
	}
	return sel, nil
}

func unknownAttack(name string) error {
	return fmt.Errorf("experiments: unknown attack %q (have %v)", name, attackOrder)
}
