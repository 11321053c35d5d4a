package experiments

import (
	"strings"
	"testing"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/sched"
)

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
