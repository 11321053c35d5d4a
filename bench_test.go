// Package whisper_test holds the benchmark harness that regenerates every
// table and figure of the paper (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers). Run with:
//
//	go test -bench=. -benchmem .
//
// Benchmarks publish their headline numbers (B/s, seconds, error rates,
// matrix agreement) as custom metrics so the shape comparison with the
// paper is visible straight from the bench output.
package whisper_test

import (
	"context"
	"io"
	"log/slog"
	"testing"

	"whisper/internal/baseline"
	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/smt"
	"whisper/internal/snapshot"
	"whisper/internal/stats"
)

func bootBench(b *testing.B, model cpu.Model, cfg kernel.Config, seed int64) *kernel.Kernel {
	b.Helper()
	m, err := cpu.NewMachine(model, seed)
	if err != nil {
		b.Fatal(err)
	}
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// rebootBench re-boots an existing machine in place — the machine-reuse path
// the per-iteration benchmarks exercise (bit-identical to a fresh boot).
func rebootBench(b *testing.B, m *cpu.Machine, cfg kernel.Config, seed int64) *kernel.Kernel {
	b.Helper()
	k, err := kernel.Reboot(m, cfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkFig1bToTE regenerates Figure 1b (E1): the per-test-value ToTE
// sweep and argmax decode on the i7-7700.
func BenchmarkFig1bToTE(b *testing.B) {
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b(experiments.Serial(), 5, experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.Decoded == r.Secret {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "decode-rate")
}

// BenchmarkTable2Matrix regenerates Table 2 (E2): all five attacks across
// all five CPU models, checked against the paper's ✓/✗ cells.
func BenchmarkTable2Matrix(b *testing.B) {
	b.ReportAllocs()
	agree := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Serial(), experiments.DefaultTable2Params(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := experiments.Table2Agrees(rows); ok {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(b.N), "paper-agreement")
}

// BenchmarkTable3PMU regenerates Table 3 (E3): the PMU toolset's paired
// scenes and differential analysis.
func BenchmarkTable3PMU(b *testing.B) {
	b.ReportAllocs()
	matches, total := 0, 0
	for i := 0; i < b.N; i++ {
		scenes, err := experiments.Table3(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scenes {
			for _, k := range s.KeyEvents {
				total++
				if k.Match {
					matches++
				}
			}
		}
	}
	b.ReportMetric(float64(matches)/float64(total), "direction-match")
}

// BenchmarkTETCCThroughput measures the TET covert channel (E4; paper:
// 500 B/s, <5 % error on the i7-7700).
func BenchmarkTETCCThroughput(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 1)
	cc, err := core.NewTETCovertChannel(k)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("whisper covert channel payload..")
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = cc.Transfer(payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, payload), "err-rate")
}

// BenchmarkTETMDThroughput measures TET-Meltdown (E5; paper: 50 B/s, <3 %
// error on the i7-7700).
func BenchmarkTETMDThroughput(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 2)
	secret := []byte("md-secret")
	k.WriteSecret(secret)
	md, err := core.NewTETMeltdown(k)
	if err != nil {
		b.Fatal(err)
	}
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = md.Leak(k.SecretVA(), len(secret))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, secret), "err-rate")
}

// BenchmarkTETZBLThroughput measures TET-Zombieload (Table 2 column; the
// paper reports success without a rate).
func BenchmarkTETZBLThroughput(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 3)
	secret := []byte("zbl-data")
	k.WriteSecret(secret)
	z, err := core.NewTETZombieload(k)
	if err != nil {
		b.Fatal(err)
	}
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = z.Leak(len(secret))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, secret), "err-rate")
}

// BenchmarkTETRSBThroughput measures TET-Spectre-V5-RSB (E6; paper:
// 21.5 KB/s, <0.1 % error on the i9-13900K).
func BenchmarkTETRSBThroughput(b *testing.B) {
	k := bootBench(b, cpu.I9_13900K(), kernel.Config{KASLR: true}, 4)
	m := k.Machine()
	secret := []byte("rsb-secret-data!")
	secretVA := uint64(kernel.UserDataBase + 0x600)
	pa, ok := k.UserAS().Translate(secretVA)
	if !ok {
		b.Fatal("secret VA unmapped")
	}
	m.Phys.StoreBytes(pa, secret)
	rsb, err := core.NewTETRSB(k)
	if err != nil {
		b.Fatal(err)
	}
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = rsb.Leak(secretVA, len(secret))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, secret), "err-rate")
}

// BenchmarkSMTChannel measures the §4.4 SMT covert channel in both
// operating points (E8; paper: 1 B/s <5 % and 268 KB/s @ 28 %).
func BenchmarkSMTChannel(b *testing.B) {
	for _, bc := range []struct {
		name string
		mode smt.Mode
		data []byte
	}{
		{"Reliable", smt.ModeReliable, []byte{0xA5, 0x3C}},
		{"SecSMT", smt.ModeSecSMT, []byte("secsmt-burst-payload")},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 5)
			ch, err := smt.NewChannel(k, bc.mode)
			if err != nil {
				b.Fatal(err)
			}
			var last core.LeakResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = ch.Transfer(bc.data)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Bps, "sim-B/s")
			b.ReportMetric(stats.BitErrorRate(last.Data, bc.data), "bit-err")
		})
	}
}

// benchKASLR runs one TET-KASLR configuration and reports scan time and
// accuracy (E7).
func benchKASLR(b *testing.B, model cpu.Model, cfg kernel.Config) {
	b.Helper()
	m, err := cpu.NewMachine(model, 6)
	if err != nil {
		b.Fatal(err)
	}
	found := 0
	var seconds float64
	for i := 0; i < b.N; i++ {
		k := rebootBench(b, m, cfg, 6+int64(i))
		a, err := core.NewTETKASLR(k)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Locate()
		if err != nil {
			b.Fatal(err)
		}
		if res.Slot == k.BaseSlot() {
			found++
		}
		seconds = res.Seconds
	}
	b.ReportMetric(float64(found)/float64(b.N), "hit-rate")
	b.ReportMetric(seconds, "sim-seconds")
}

// BenchmarkTETKASLR is the plain §4.5 break (paper: 0.8829 s on the
// i9-10980XE).
func BenchmarkTETKASLR(b *testing.B) {
	benchKASLR(b, cpu.I9_10980XE(), kernel.Config{KASLR: true})
}

// BenchmarkTETKASLRKPTI breaks KASLR through the KPTI trampoline (paper:
// within 1 s).
func BenchmarkTETKASLRKPTI(b *testing.B) {
	benchKASLR(b, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true})
}

// BenchmarkTETKASLRFLARE bypasses the state-of-the-art FLARE defense on top
// of KPTI.
func BenchmarkTETKASLRFLARE(b *testing.B) {
	benchKASLR(b, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true, FLARE: true})
}

// BenchmarkTETKASLRDocker breaks KASLR from inside a container (§4.5).
func BenchmarkTETKASLRDocker(b *testing.B) {
	benchKASLR(b, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true, Docker: true})
}

// BenchmarkFGKASLRMitigation is the §6.2 ablation (E13): the base is found
// but function derivation must break.
func BenchmarkFGKASLRMitigation(b *testing.B) {
	m, err := cpu.NewMachine(cpu.I9_10980XE(), 7)
	if err != nil {
		b.Fatal(err)
	}
	mitigated := 0
	for i := 0; i < b.N; i++ {
		k := rebootBench(b, m, kernel.Config{KASLR: true, FGKASLR: true}, 7+int64(i))
		a, err := core.NewTETKASLR(k)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Locate()
		if err != nil {
			b.Fatal(err)
		}
		derived := res.Base + kernel.KernelFunctions["commit_creds"]
		actual, err := k.FunctionVA("commit_creds")
		if err != nil {
			b.Fatal(err)
		}
		if res.Slot == k.BaseSlot() && derived != actual {
			mitigated++
		}
	}
	b.ReportMetric(float64(mitigated)/float64(b.N), "mitigation-rate")
}

// BenchmarkSecureTLBAblation is the §6.3 hardware-fix ablation (E14): with
// fill-on-fault removed, TET-KASLR must fail.
func BenchmarkSecureTLBAblation(b *testing.B) {
	model := cpu.I9_10980XE()
	model.Pipe.TLBFillOnFault = false
	defeated := 0
	m, err := cpu.NewMachine(model, 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		k := rebootBench(b, m, kernel.Config{KASLR: true}, 8+int64(i))
		a, err := core.NewTETKASLR(k)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Locate()
		if err != nil {
			b.Fatal(err)
		}
		if res.Slot != k.BaseSlot() {
			defeated++
		}
	}
	b.ReportMetric(float64(defeated)/float64(b.N), "defense-rate")
}

// BenchmarkAbortableAssistAblation flips the abortable-assist knob DESIGN.md
// calls out: without it, TET-ZBL's argmin signal disappears.
func BenchmarkAbortableAssistAblation(b *testing.B) {
	model := cpu.I7_7700()
	model.Pipe.AbortableAssist = false
	secret := []byte{0x5A}
	broken := 0
	m, err := cpu.NewMachine(model, 9)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		k := rebootBench(b, m, kernel.Config{KASLR: true}, 9+int64(i))
		k.WriteSecret(secret)
		z, err := core.NewTETZombieload(k)
		if err != nil {
			b.Fatal(err)
		}
		z.Batches = 3
		res, err := z.Leak(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Data[0] != secret[0] {
			broken++
		}
	}
	b.ReportMetric(float64(broken)/float64(b.N), "signal-gone-rate")
}

// BenchmarkBaselineFlushReload measures the classic cache covert channel
// (E15 comparator).
func BenchmarkBaselineFlushReload(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 10)
	fr, err := baseline.NewFlushReload(k)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("flush+reload baseline...")
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = fr.Transfer(payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
}

// BenchmarkBaselineMeltdownFR measures the original Meltdown with a cache
// probe array (E15 comparator).
func BenchmarkBaselineMeltdownFR(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 11)
	secret := []byte("fr-md")
	k.WriteSecret(secret)
	md, err := baseline.NewMeltdownFR(k)
	if err != nil {
		b.Fatal(err)
	}
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = md.Leak(k.SecretVA(), len(secret))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, secret), "err-rate")
}

// BenchmarkBaselinePrefetchKASLR measures the EntryBleed-style probe with
// and without FLARE (E15: FLARE defeats it; TET survives).
func BenchmarkBaselinePrefetchKASLR(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flare bool
	}{
		{"NoFLARE", false},
		{"FLARE", true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				k := bootBench(b, cpu.I9_10980XE(),
					kernel.Config{KASLR: true, KPTI: true, FLARE: bc.flare}, 12+int64(i))
				a, err := baseline.NewPrefetchKASLR(k)
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.Locate()
				if err != nil {
					b.Fatal(err)
				}
				if res.Slot == k.BaseSlot() {
					found++
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "hit-rate")
		})
	}
}

// BenchmarkFig3Frontend regenerates the Figure 3 frontend-resteer evidence
// (E10).
func BenchmarkFig3Frontend(b *testing.B) {
	matches, total := 0, 0
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig3(experiments.DefaultSeed + int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range s.KeyEvents {
			total++
			if k.Match {
				matches++
			}
		}
	}
	b.ReportMetric(float64(matches)/float64(total), "direction-match")
}

// BenchmarkFig4UopsIssued regenerates the §5.2.5 fence-distance sweep (E11):
// the UOPS_ISSUED delta must flip sign across the sweep.
func BenchmarkFig4UopsIssued(b *testing.B) {
	flips := 0
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].Delta > 0 && pts[len(pts)-1].Delta < 0 {
			flips++
		}
	}
	b.ReportMetric(float64(flips)/float64(b.N), "sign-flip-rate")
}

// BenchmarkProbe measures raw simulator probe rate (engineering metric).
func BenchmarkProbe(b *testing.B) {
	k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 13)
	pr, err := core.NewProber(k.Machine(), core.SuppressTSX, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeTracingOverhead compares the probe hot path with
// observability disabled (the default: Machine.Obs == nil, instrumentation
// collapses to one nil check) and fully enabled (spans + metrics + pipeline
// ring + per-probe PMU samples). The disabled variant is the overhead
// contract: it must stay within noise of BenchmarkProbe, and the allocation
// figure it reports is pure simulator work (the pipeline frontend allocates
// its uop records whether or not anyone is watching) — the instrumentation
// itself adds zero bytes, which internal/obs's
// TestDisabledInstrumentationZeroAlloc pins exactly.
func BenchmarkProbeTracingOverhead(b *testing.B) {
	for _, bc := range []struct {
		name    string
		enabled bool
	}{
		{"Disabled", false},
		{"Enabled", true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			k := bootBench(b, cpu.I7_7700(), kernel.Config{KASLR: true}, 13)
			if bc.enabled {
				k.Machine().EnableObs()
			}
			pr, err := core.NewProber(k.Machine(), core.SuppressTSX, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.Probe(core.UnmappedVA, uint64(i%256), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeLoggingOverhead prices the structured-logging layer on the
// serving hot path at its three operating points: no logger on the context
// (every direct CLI run — the guard must collapse to a context lookup plus a
// boolean), a real logger whose level filters the event out (whisperd at the
// default -log-level=info rejecting debug events), and a level-enabled JSON
// event actually encoded and written. EXPERIMENTS.md's observability row
// quotes these numbers.
func BenchmarkServeLoggingOverhead(b *testing.B) {
	enabled, err := logging.New(logging.Options{Level: "info", Format: "json", Output: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		ctx   context.Context
		level slog.Level
	}{
		{"Disabled", context.Background(), slog.LevelDebug},
		{"LevelFiltered", logging.With(context.Background(), enabled), slog.LevelDebug},
		{"EnabledJSON", logging.With(context.Background(), enabled), slog.LevelInfo},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			ctx := obs.WithRequestID(bc.ctx, "bench-request-1")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if log := logging.From(ctx); log.Enabled(ctx, bc.level) {
					log.LogAttrs(ctx, bc.level, "request",
						slog.String("experiment", "table2"),
						slog.String(obs.RequestIDAttr, obs.RequestIDFrom(ctx)),
						slog.Int("status", 200),
						slog.Int64("dur_us", int64(i)))
				}
			}
		})
	}
}

// BenchmarkMitigationMatrix regenerates the §6 defense × attack matrix
// (E16): InvisiSpec vs TET/F+R Meltdown, KPTI, VERW scrubbing, microcode.
func BenchmarkMitigationMatrix(b *testing.B) {
	agree := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Mitigations(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := experiments.MitigationsAgree(rows); ok {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(b.N), "paper-agreement")
}

// BenchmarkStealthDetector runs both Meltdown variants under the HPC
// cache-attack detector (E17): F+R is flagged, TET is not.
func BenchmarkStealthDetector(b *testing.B) {
	asExpected := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Stealth(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		ok := true
		for _, r := range rows {
			if r.Attack == "TET-MD" && r.Detected {
				ok = false
			}
			if r.Attack == "Meltdown-F+R" && !r.Detected {
				ok = false
			}
		}
		if ok {
			asExpected++
		}
	}
	b.ReportMetric(float64(asExpected)/float64(b.N), "stealth-rate")
}

// BenchmarkCondFamily sweeps the whole conditional-jump family (E18): the
// §5 claim that every Jcc flavour carries the TET signal.
func BenchmarkCondFamily(b *testing.B) {
	carrying := 0
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CondFamily(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			total++
			if r.Delta >= 3 {
				carrying++
			}
		}
	}
	b.ReportMetric(float64(carrying)/float64(total), "signal-rate")
}

// BenchmarkTETSpectreV1 measures the repository's extension attack: Spectre
// variant 1 decoded through the TET channel (no fault, no cache probe).
func BenchmarkTETSpectreV1(b *testing.B) {
	k := bootBench(b, cpu.I9_13900K(), kernel.Config{KASLR: true}, 14)
	v1, err := core.NewTETSpectreV1(k)
	if err != nil {
		b.Fatal(err)
	}
	secret := []byte("v1-oob")
	pa, ok := k.UserAS().Translate(v1.ArrayVA() + v1.ArrayLen())
	if !ok {
		b.Fatal("secret region unmapped")
	}
	k.Machine().Phys.StoreBytes(pa, secret)
	var last core.LeakResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = v1.Leak(v1.ArrayLen(), len(secret))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Bps, "sim-B/s")
	b.ReportMetric(stats.ByteErrorRate(last.Data, secret), "err-rate")
}

// BenchmarkRecoveryDebtAblation zeroes the recovery-debt term DESIGN.md §1
// calls out as the TET-MD mechanism: without it, the triggered probe is no
// longer distinguishable and the leak collapses.
func BenchmarkRecoveryDebtAblation(b *testing.B) {
	model := cpu.I7_7700()
	model.Pipe.DebtFactor = 0
	secret := []byte{0x42}
	broken := 0
	m, err := cpu.NewMachine(model, 15)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		k := rebootBench(b, m, kernel.Config{KASLR: true}, 15+int64(i))
		k.WriteSecret(secret)
		md, err := core.NewTETMeltdown(k)
		if err != nil {
			b.Fatal(err)
		}
		md.Batches = 3
		res, err := md.Leak(k.SecretVA(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Data[0] != secret[0] {
			broken++
		}
	}
	b.ReportMetric(float64(broken)/float64(b.N), "signal-gone-rate")
}

// runAllParams is the workload both RunAll benchmarks share, sized so the
// serial/parallel comparison finishes quickly but still spans every artefact.
func runAllParams() experiments.SweepParams {
	p := experiments.DefaultSweepParams()
	p.ThroughputBytes = 4
	p.KASLRReps = 3
	p.Fig1bBatches = 3
	return p
}

// BenchmarkRunAllSerial regenerates the full report on one sched worker —
// the reference cost the parallel engine is measured against.
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(experiments.Exec{Parallel: 1}, runAllParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel regenerates the same report on four workers; the
// output is byte-identical (TestRunAllParallelByteIdentical), so the entire
// delta vs BenchmarkRunAllSerial is scheduler speedup.
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(experiments.Exec{Parallel: 4}, runAllParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotFork prices the snapshot library's fork path against a
// reboot: restoring a warm kernel checkpoint into a pooled machine versus
// re-booting the kernel on the same machine. The Fork/Reboot ratio is the
// most a fork can save per boot, before the capture it needs.
func BenchmarkSnapshotFork(b *testing.B) {
	model, cfg := cpu.I7_7700(), kernel.Config{KASLR: true}
	b.Run("Fork", func(b *testing.B) {
		k := bootBench(b, model, cfg, 16)
		snap, err := snapshot.CaptureKernel(k)
		if err != nil {
			b.Fatal(err)
		}
		pool := cpu.NewPool()
		fk, err := snap.ForkKernel(pool) // warm the pooled target
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(fk.Machine())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fk, err := snap.ForkKernel(pool)
			if err != nil {
				b.Fatal(err)
			}
			pool.Put(fk.Machine())
		}
	})
	b.Run("Reboot", func(b *testing.B) {
		m, err := cpu.NewMachine(model, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kernel.Reboot(m, cfg, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNoiseSweep measures attack robustness vs timer jitter (the
// transition the NoiseSweep experiment documents: vote decoder up to
// ~signal/3 jitter, median decoder beyond it).
func BenchmarkNoiseSweep(b *testing.B) {
	recovered, total := 0, 0
	for i := 0; i < b.N; i++ {
		pts, err := experiments.NoiseSweep(experiments.Serial(), experiments.DefaultSeed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			total++
			if p.Recovered {
				recovered++
			}
		}
	}
	b.ReportMetric(float64(recovered)/float64(total), "recovered-rate")
}
