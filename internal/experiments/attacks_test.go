package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/sched"
	"whisper/internal/smt"
)

// goldenSuiteSHA256 is the SHA-256 of TestAttackSuiteBlocks' full suite,
// captured before the attack layer's leak paths were merged into one.
const goldenSuiteSHA256 = "062a3c9f17a29203efc62989b1f21563f1f4f4d670c67521fee03785b720dbf7"

// TestAttackSuiteBlocks pins how AttackSuite assembles its output from one
// block per family: the suite is byte-identical at Parallel 1 and 4, a
// one-family filter yields exactly that family's block of the full suite,
// every block but md's is RunAttack on the cell's own booted machine, and an
// unknown family is an error.
func TestAttackSuiteBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the attack suite about four times")
	}
	model := cpu.I7_7700()
	cfg := kernel.Config{KASLR: true}
	secret := []byte("squeamish ossifrage")
	const seed = 1

	full, err := AttackSuite(Exec{Parallel: 1}, model, cfg, secret, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AttackSuite(Exec{Parallel: 4}, model, cfg, secret, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par != full {
		t.Fatalf("suite differs between Parallel 1 and 4:\n%s\nvs\n%s", full, par)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(full))); got != goldenSuiteSHA256 {
		t.Errorf("suite SHA-256 %s, want %s; the suite now reads\n%s", got, goldenSuiteSHA256, full)
	}

	rest := full
	for _, f := range AttackNames() {
		block, err := AttackSuite(Serial(), model, cfg, secret, seed, []string{f})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if block == "" || !strings.HasPrefix(rest, block) {
			t.Fatalf("%s alone gives\n%s\nbut the full suite's next block is\n%s", f, block, rest)
		}
		rest = rest[len(block):]

		if f == "md" {
			if !strings.HasPrefix(block, "TET-Meltdown (replica farm) leaked") {
				t.Fatalf("md block is not the replica-farm leak:\n%s", block)
			}
			continue
		}
		k, err := boot(model, cfg, sched.DeriveSeed(seed, f))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := RunAttack(k, f, secret)
		recycle(k)
		if err != nil {
			t.Fatalf("RunAttack %s: %v", f, err)
		}
		if direct != block {
			t.Fatalf("%s: RunAttack on the cell's machine gives\n%s\nbut the suite block is\n%s", f, direct, block)
		}
	}
	if rest != "" {
		t.Fatalf("full suite has output past the last family's block:\n%s", rest)
	}

	if _, err := AttackSuite(Serial(), model, cfg, secret, seed, []string{"cc", "rowhammer"}); err == nil ||
		!strings.Contains(err.Error(), `"rowhammer"`) {
		t.Fatalf("unknown family in the filter: err = %v, want one naming it", err)
	}
	k, err := boot(model, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer recycle(k)
	if _, err := RunAttack(k, "rowhammer", secret); err == nil {
		t.Fatal("RunAttack accepted an unknown family")
	}
}

// TestEveryLeakEmitsTheLeakSpans pins that every family, and the SMT
// channel, leaks through core.LeakBytes: each leaves one core.leak span
// naming its attack, and one core.leak.byte span per recovered byte
// carrying that byte's value.
func TestEveryLeakEmitsTheLeakSpans(t *testing.T) {
	secret := []byte("ab")
	for _, c := range []struct{ family, attack string }{
		{"cc", "TET-CC"}, {"md", "TET-Meltdown"}, {"zbl", "TET-Zombieload"}, {"rsb", "TET-RSB"},
		{"v1", "TET-V1"}, {"fr", "Flush+Reload"}, {"md-fr", "Meltdown-F+R"}, {"smt", "SMT"},
	} {
		m := cpu.MustMachine(cpu.I7_7700(), 5)
		r := m.EnableObs()
		k, err := kernel.Boot(m, kernel.Config{KASLR: true})
		if err != nil {
			t.Fatal(err)
		}
		var res core.LeakResult
		if c.family == "smt" {
			var ch *smt.Channel
			if ch, err = smt.NewChannel(k, smt.ModeSecSMT); err == nil {
				res, err = ch.Transfer(secret)
			}
		} else {
			res, err = leak(k, leakSpec{family: c.family, secret: secret, rsbAt: 0x300, batches: 1})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		var attacks, values []string
		for _, sp := range r.Spans() {
			for _, a := range sp.Attrs {
				switch {
				case sp.Name == "core.leak" && a.Key == "attack":
					attacks = append(attacks, a.Value)
				case sp.Name == "core.leak.byte" && a.Key == "value":
					values = append(values, a.Value)
				}
			}
		}
		want := make([]string, len(res.Data))
		for i, b := range res.Data {
			want[i] = fmt.Sprint(b)
		}
		if len(attacks) != 1 || attacks[0] != c.attack {
			t.Errorf("%s: core.leak attack attributes %q, want one %q", c.family, attacks, c.attack)
		}
		if fmt.Sprint(values) != fmt.Sprint(want) {
			t.Errorf("%s: core.leak.byte values %v, want %v", c.family, values, want)
		}
	}
}

// TestEveryKASLRScanEmitsTheScanSpans pins that every KASLR scan, the
// prefetch baseline's included, runs through core.ScanSlots: one
// core.kaslr.locate span named by the scan and one core.kaslr.slot span per
// candidate slot.
func TestEveryKASLRScanEmitsTheScanSpans(t *testing.T) {
	for _, c := range []struct {
		cfg      kernel.Config
		prefetch bool
		attack   string
	}{
		{kernel.Config{KASLR: true}, false, "TET-KASLR"},
		{kernel.Config{KASLR: true, KPTI: true, FLARE: true}, false, "TET-KASLR"},
		{kernel.Config{KASLR: true, KPTI: true}, true, "prefetch-KASLR"},
	} {
		m := cpu.MustMachine(cpu.I9_10980XE(), 5)
		r := m.EnableObs()
		k, err := kernel.Boot(m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := locate(k, 1, c.prefetch); err != nil {
			t.Fatalf("%s %+v: %v", c.attack, c.cfg, err)
		}
		var attacks []string
		slots := 0
		for _, sp := range r.Spans() {
			switch sp.Name {
			case "core.kaslr.locate":
				for _, a := range sp.Attrs {
					if a.Key == "attack" {
						attacks = append(attacks, a.Value)
					}
				}
			case "core.kaslr.slot":
				slots++
			}
		}
		if len(attacks) != 1 || attacks[0] != c.attack {
			t.Errorf("%s %+v: core.kaslr.locate attack attributes %q, want one %q", c.attack, c.cfg, attacks, c.attack)
		}
		if slots != kernel.NumSlots {
			t.Errorf("%s %+v: %d core.kaslr.slot spans, want %d", c.attack, c.cfg, slots, kernel.NumSlots)
		}
	}
}
