package fuzzgen_test

import (
	"fmt"
	"math/rand"
	"testing"

	"whisper/internal/fuzzgen"
	"whisper/internal/interp"
)

func seedStream(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// TestGenerateDeterministic: the generator is a pure function of its input
// bytes. The same stream must yield a byte-identical program (and handler and
// memory seed) no matter how many times, or on how many goroutines, it runs —
// corpus replay and crash minimization depend on it.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 8; i++ {
		i := i
		t.Run(fmt.Sprintf("stream%d", i), func(t *testing.T) {
			t.Parallel()
			data := seedStream(int64(100+i), 512)
			ref := fuzzgen.GenerateSpec(data)
			refDump := ref.Prog.Dump()
			refPrint := ref.Prog.Fingerprint()
			for rep := 0; rep < 4; rep++ {
				got := fuzzgen.GenerateSpec(data)
				if d := got.Prog.Dump(); d != refDump {
					t.Fatalf("rep %d: program text diverged:\n%s\nvs\n%s", rep, d, refDump)
				}
				if p := got.Prog.Fingerprint(); p != refPrint {
					t.Fatalf("rep %d: fingerprint %#x, want %#x", rep, p, refPrint)
				}
				if got.Handler != ref.Handler || got.MemSeed != ref.MemSeed {
					t.Fatalf("rep %d: handler/seed diverged: (%d,%d) vs (%d,%d)",
						rep, got.Handler, got.MemSeed, ref.Handler, ref.MemSeed)
				}
			}
		})
	}
}

// TestGenerateTotal: every byte stream — including truncated and empty ones —
// yields a program that assembles and runs to completion on the architectural
// interpreter within budget. The generator is total; there are no "invalid"
// fuzz inputs, only different programs.
func TestGenerateTotal(t *testing.T) {
	inputs := [][]byte{nil, {}, {0xff}, seedStream(7, 3), seedStream(8, 17)}
	for i := int64(0); i < 24; i++ {
		inputs = append(inputs, seedStream(200+i, int(32+i*40)))
	}
	for i, data := range inputs {
		spec := fuzzgen.GenerateSpec(data)
		env := fuzzgen.MustEnv()
		env.SeedData(spec.MemSeed)
		m := interp.New(env.AS)
		m.SetSignalHandler(spec.Handler)
		if err := m.Run(spec.Prog, 2_000_000); err != nil {
			t.Fatalf("input %d: generated program does not complete: %v\n%s",
				i, err, spec.Prog.Dump())
		}
	}
}

// TestGeneratePairSplitsInput: the SMT pair generator must derive two
// independent specs deterministically from one stream.
func TestGeneratePairSplitsInput(t *testing.T) {
	data := seedStream(42, 600)
	a1, b1 := fuzzgen.GeneratePair(data)
	a2, b2 := fuzzgen.GeneratePair(data)
	if a1.Prog.Fingerprint() != a2.Prog.Fingerprint() || b1.Prog.Fingerprint() != b2.Prog.Fingerprint() {
		t.Fatal("GeneratePair not deterministic")
	}
	if a1.Prog.Fingerprint() == b1.Prog.Fingerprint() && a1.Prog.Dump() == b1.Prog.Dump() && len(data) > 8 {
		t.Log("pair halves generated identical programs (possible but suspicious for a long stream)")
	}
}
