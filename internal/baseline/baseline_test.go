package baseline

import (
	"testing"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

func boot(t *testing.T, model cpu.Model, cfg kernel.Config, seed int64) *kernel.Kernel {
	t.Helper()
	m := cpu.MustMachine(model, seed)
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFlushReloadTransfer(t *testing.T) {
	k := boot(t, cpu.I7_7700(), kernel.Config{KASLR: true}, 301)
	c, err := NewFlushReload(k)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	res, err := c.Transfer(payload)
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, payload); er > 0.05 {
		t.Fatalf("F+R error rate %.2f (got %x)", er, res.Data)
	}
	if res.Bps <= 0 {
		t.Fatal("no throughput")
	}
}

func TestMeltdownFRLeaksSecret(t *testing.T) {
	k := boot(t, cpu.I7_7700(), kernel.Config{KASLR: true}, 302)
	secret := []byte("CLASSIC")
	k.WriteSecret(secret)
	a, err := NewMeltdownFR(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Leak(k.SecretVA(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er > 0.15 {
		t.Fatalf("Meltdown-F+R error %.2f: %q want %q", er, res.Data, secret)
	}
}

func TestMeltdownFRFailsOnPatched(t *testing.T) {
	k := boot(t, cpu.I9_10980XE(), kernel.Config{KASLR: true}, 303)
	secret := []byte("XY")
	k.WriteSecret(secret)
	a, err := NewMeltdownFR(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Leak(k.SecretVA(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er < 0.5 {
		t.Fatalf("Meltdown-F+R should fail on patched CPU (err %.2f, %q)", er, res.Data)
	}
}

func TestPrefetchKASLRWorksWithoutFLARE(t *testing.T) {
	for _, kpti := range []bool{false, true} {
		k := boot(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: kpti}, 304)
		a, err := NewPrefetchKASLR(k)
		if err != nil {
			t.Fatal(err)
		}
		a.Reps = 3
		res, err := a.Locate()
		if err != nil {
			t.Fatal(err)
		}
		if res.Slot != k.BaseSlot() {
			t.Fatalf("kpti=%v: prefetch-KASLR slot %d, want %d", kpti, res.Slot, k.BaseSlot())
		}
	}
}

func TestPrefetchKASLRDefeatedByFLARE(t *testing.T) {
	// The comparison the paper's §6.1 makes: FLARE stops prefetch-style
	// probes (everything appears mapped) while TET-KASLR still works.
	k := boot(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true, FLARE: true}, 305)
	a, err := NewPrefetchKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot == k.BaseSlot() {
		t.Fatalf("prefetch-KASLR should be defeated by FLARE but found slot %d", res.Slot)
	}
}

// TestKASLRRejectsBadReps pins that both KASLR scans, TET-KASLR (plain and
// through the FLARE bypass) and the prefetch baseline, reject a
// non-positive rounds-per-slot count before they probe, instead of
// reporting "not found" (0) or panicking (< 0).
func TestKASLRRejectsBadReps(t *testing.T) {
	for _, cfg := range []kernel.Config{{KASLR: true}, {KASLR: true, KPTI: true, FLARE: true}} {
		k := boot(t, cpu.I9_10980XE(), cfg, 306)
		tet, err := core.NewTETKASLR(k)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := NewPrefetchKASLR(k)
		if err != nil {
			t.Fatal(err)
		}
		start := k.Machine().Pipe.Cycle()
		for _, reps := range []int{0, -2} {
			tet.Reps, pf.Reps = reps, reps
			if res, err := tet.Locate(); err == nil {
				t.Errorf("%+v: TET-KASLR accepted %d reps (slot %d)", cfg, reps, res.Slot)
			}
			if res, err := pf.Locate(); err == nil {
				t.Errorf("%+v: prefetch-KASLR accepted %d reps (slot %d)", cfg, reps, res.Slot)
			}
		}
		if end := k.Machine().Pipe.Cycle(); end != start {
			t.Errorf("%+v: rejected scans ran %d simulated cycles", cfg, end-start)
		}
	}
}

func TestConstructorsRejectNil(t *testing.T) {
	if _, err := NewFlushReload(nil); err == nil {
		t.Error("F+R nil accepted")
	}
	if _, err := NewMeltdownFR(nil); err == nil {
		t.Error("MD-F+R nil accepted")
	}
	if _, err := NewPrefetchKASLR(nil); err == nil {
		t.Error("prefetch nil accepted")
	}
}
