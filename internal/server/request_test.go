package server

import (
	"strings"
	"testing"
)

// TestNormalizeSweepDefaults checks a sweep-shaped request resolves every
// zero field to the experiment default and drops the attack-only fields, so
// equivalent spellings collapse to one canonical request.
func TestNormalizeSweepDefaults(t *testing.T) {
	norm, err := Request{Experiment: "table2", CPU: "bogus", Secret: "x", KPTI: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Seed == 0 || norm.ThroughputBytes == 0 || norm.KASLRReps == 0 || norm.Fig1bBatches == 0 {
		t.Fatalf("defaults not resolved: %+v", norm)
	}
	if norm.CPU != "" || norm.Secret != "" || norm.KPTI {
		t.Fatalf("attack fields not dropped from a sweep request: %+v", norm)
	}
	spelled, err := Request{
		Experiment:      "table2",
		Seed:            norm.Seed,
		ThroughputBytes: norm.ThroughputBytes,
		KASLRReps:       norm.KASLRReps,
		Fig1bBatches:    norm.Fig1bBatches,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Hash() != spelled.Hash() {
		t.Fatalf("explicit defaults hash differently:\n%+v\n%+v", norm, spelled)
	}
}

// TestNormalizeAttackCanonical checks CPU aliases canonicalize to the full
// model name and attack filters to block order (the full set to nil), so the
// cache never stores the same computation under two hashes.
func TestNormalizeAttackCanonical(t *testing.T) {
	a, err := Request{Experiment: "attacks", CPU: "kaby lake", Attacks: []string{"md", "cc"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU == "kaby lake" || !strings.Contains(a.CPU, "i7-7700") {
		t.Fatalf("CPU alias not canonicalized: %q", a.CPU)
	}
	if len(a.Attacks) != 2 || a.Attacks[0] != "cc" || a.Attacks[1] != "md" {
		t.Fatalf("attack filter not in block order: %v", a.Attacks)
	}
	if a.Seed != DefaultAttackSeed || a.Secret != DefaultSecret {
		t.Fatalf("attack defaults not resolved: %+v", a)
	}

	b, err := Request{Experiment: "attacks", CPU: "Intel Core i7-7700", Attacks: []string{"cc", "md"}, Seed: DefaultAttackSeed, Secret: DefaultSecret}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent attack requests hash differently:\n%+v\n%+v", a, b)
	}

	all, err := Request{Experiment: "attacks", Attacks: []string{"cc", "md", "zbl", "rsb", "v1", "kaslr", "smt"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if all.Attacks != nil {
		t.Fatalf("full attack set should canonicalize to nil, got %v", all.Attacks)
	}
}

// TestNormalizeRejectsUnknown checks no hash is ever minted for a request
// the server cannot run, cannot hash apart from another, or that is sized
// to hold a backend for hours.
func TestNormalizeRejectsUnknown(t *testing.T) {
	cases := []Request{
		{Experiment: "tableX"},
		{Experiment: "attacks", CPU: "6502"},
		{Experiment: "attacks", Attacks: []string{"rowhammer"}},
		{Experiment: "attacks", Secret: strings.Repeat("s", maxSecretBytes+1)},
		{Experiment: "leak", Secret: strings.Repeat("s", maxSecretBytes+1)},
		{Experiment: "leak", Secret: "\xc5\xc5"}, // would hash as "\ufffd\ufffd"
		{Experiment: "throughput", ThroughputBytes: maxThroughputBytes + 1},
		{Experiment: "throughput", ThroughputBytes: 1 << 30},
		{Experiment: "kaslr", KASLRReps: maxKASLRReps + 1},
		{Experiment: "fig1b", Fig1bBatches: maxFig1bBatches + 1},
	}
	for _, req := range cases {
		if _, err := req.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an unrunnable request", req)
		}
	}
	atBound := []Request{
		{Experiment: "leak", Secret: strings.Repeat("s", maxSecretBytes)},
		{Experiment: "throughput", ThroughputBytes: maxThroughputBytes},
		{Experiment: "kaslr", KASLRReps: maxKASLRReps},
		{Experiment: "fig1b", Fig1bBatches: maxFig1bBatches},
	}
	for _, req := range atBound {
		if _, err := req.Normalize(); err != nil {
			t.Errorf("Normalize(%+v) rejected a request at the bound: %v", req, err)
		}
	}
}

// TestHashDistinguishesComputations checks requests denoting different
// computations never collide on the fields the result depends on.
func TestHashDistinguishesComputations(t *testing.T) {
	base, err := Request{Experiment: "table2"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	other, err := Request{Experiment: "table2", Seed: base.Seed + 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Hash() == other.Hash() {
		t.Fatal("different seeds hash equal")
	}
	sweep, err := Request{Experiment: "table3", Seed: base.Seed}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Hash() == sweep.Hash() {
		t.Fatal("different experiments hash equal")
	}
}

// TestExperimentsIndex checks the servable index contains both shapes.
func TestExperimentsIndex(t *testing.T) {
	names := Experiments()
	for _, want := range []string{"attacks", "leak", "table2", "report"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Experiments() = %v, missing %q", names, want)
		}
	}
}
