package experiments

import (
	"strings"
	"testing"

	"whisper/internal/isa"
)

// Render functions are exercised against hand-built rows so the formatting
// paths are covered without re-running the simulations.

func TestRenderKASLRSuiteFormatting(t *testing.T) {
	rows := []KASLRRow{
		{Name: "TET-KASLR", CPU: "cpuA", Found: true, Seconds: 0.82, PaperSeconds: 0.8829, Note: "n"},
		{Name: "TET-KASLR", CPU: "cpuB", Found: false, Seconds: 0.5},
	}
	out := RenderKASLRSuite(rows)
	for _, want := range []string{"cpuA", "0.8829", "✓", "✗", "0.8200"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderMitigationsFormatting(t *testing.T) {
	out := RenderMitigations([]MitigationRow{
		{Defense: "KPTI", Attack: "TET-MD", Works: false, ErrRate: 1, Note: "gone"},
	})
	for _, want := range []string{"KPTI", "TET-MD", "✗", "100.0%", "gone"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderStealthFormatting(t *testing.T) {
	out := RenderStealth([]StealthRow{
		{Attack: "TET-MD", AlarmRate: 0, Detected: false},
		{Attack: "Meltdown-F+R", AlarmRate: 1, Detected: true},
	})
	if !strings.Contains(out, "TET-MD") || !strings.Contains(out, "100%") {
		t.Errorf("render wrong:\n%s", out)
	}
}

func TestRenderNoiseSweepFormatting(t *testing.T) {
	out := RenderNoiseSweep([]NoisePoint{
		{Sigma: 6, Batches: 21, Decoder: "median", ErrRate: 0, Recovered: true},
	})
	for _, want := range []string{"median", "6.0", "21", "✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderCondFamilyFormatting(t *testing.T) {
	out := RenderCondFamily([]CondRow{
		{Cond: isa.CondC, Name: "JC/JB", QuietToTE: 265, TrigToTE: 271, Delta: 6},
	})
	if !strings.Contains(out, "JC/JB") || !strings.Contains(out, "+6") {
		t.Errorf("render wrong:\n%s", out)
	}
}

func TestRenderFig4Formatting(t *testing.T) {
	out := RenderFig4([]Fig4Point{
		{NopsBeforeFence: 0, UopsNoTrigger: 12, UopsTrigger: 19, Delta: 7},
		{NopsBeforeFence: 48, UopsNoTrigger: 60, UopsTrigger: 26, Delta: -34},
	})
	for _, want := range []string{"+7.0", "-34.0", "fence"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderTable3Formatting(t *testing.T) {
	out := RenderTable3([]Table3Scene{{
		Name: "TET-MD", CPU: "x", LabelA: "a", LabelB: "b",
		KeyEvents: []KeyEvent{{
			Event: "RESOURCE_STALLS.ANY", PaperA: 15, PaperB: 21,
			GotA: 0, GotB: 3, GotDir: 1, WantDir: 1, Match: true,
		}},
	}})
	for _, want := range []string{"RESOURCE_STALLS.ANY", "15", "21", "✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestDefaultReportParams(t *testing.T) {
	p := DefaultSweepParams()
	if p.Seed != DefaultSeed || p.KASLRReps <= 0 || p.ThroughputBytes <= 0 || p.Fig1bBatches <= 0 {
		t.Fatalf("bad defaults: %+v", p)
	}
}

func TestDirOf(t *testing.T) {
	if dirOf(1, 5) != 1 || dirOf(5, 1) != -1 || dirOf(3, 3.2) != 0 {
		t.Fatal("dirOf thresholds wrong")
	}
}

func TestCondOperandsAllDefined(t *testing.T) {
	for c := isa.CondE; c <= isa.CondG; c++ {
		tc, td, qc, qd, ok := condOperands(c)
		if !ok {
			t.Fatalf("cond %v missing operands", c)
		}
		// Trigger pair must evaluate taken, quiet pair not-taken, under the
		// flags cmp(tc, td) produces.
		eval := func(a, b uint64) bool {
			_, f := cmpFlags(a, b)
			return c.Eval(f)
		}
		if !eval(tc, td) {
			t.Errorf("cond %v: trigger pair does not trigger", c)
		}
		if eval(qc, qd) {
			t.Errorf("cond %v: quiet pair triggers", c)
		}
	}
}

// cmpFlags mirrors the ALU's cmp semantics for the operand check above.
func cmpFlags(a, b uint64) (uint64, isa.Flags) {
	r := a - b
	return a, isa.Flags{ZF: r == 0, CF: a < b, SF: r>>63 != 0}
}
