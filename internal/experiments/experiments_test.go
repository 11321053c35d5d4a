package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
)

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"TET-MD", "TET-KASLR", "Binoculars", "Flush+Reload"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

// TestSnapshotMemoStatsCountsBoots pins the deprecated shim: every sweep
// boot is one miss, and hits and resident bytes stay 0.
func TestSnapshotMemoStatsCountsBoots(t *testing.T) {
	before := SnapshotMemoStats()
	for i := 0; i < 2; i++ {
		k, err := boot(cpu.I7_7700(), kernel.Config{KASLR: true}, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		recycle(k)
	}
	after := SnapshotMemoStats()
	if got := after.Misses - before.Misses; got != 2 || after.Hits != 0 || after.ResidentBytes != 0 {
		t.Fatalf("2 boots read as %d misses, stats %+v; want 2 misses, 0 hits, 0 bytes", got, after)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2(Exec{}, DefaultTable2Params(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	ok, diffs := Table2Agrees(rows)
	if !ok {
		t.Fatalf("Table 2 deviates from the paper: %v\n%s", diffs, RenderTable2(rows))
	}
	// The render must carry every CPU and the glyphs.
	out := RenderTable2(rows)
	for _, r := range rows {
		if !strings.Contains(out, r.Model.Name) {
			t.Errorf("render missing %s", r.Model.Name)
		}
	}
}

func TestTable3DirectionsMatchPaper(t *testing.T) {
	scenes, err := Table3(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenes) != 5 {
		t.Fatalf("scenes = %d", len(scenes))
	}
	for _, s := range scenes {
		if len(s.KeyEvents) == 0 {
			t.Errorf("scene %s/%s has no key events", s.CPU, s.Name)
		}
		for _, k := range s.KeyEvents {
			if !k.Match {
				t.Errorf("%s %s: %s direction mismatch (paper %.0f→%.0f, measured %.1f→%.1f)",
					s.CPU, s.Name, k.Event, k.PaperA, k.PaperB, k.GotA, k.GotB)
			}
		}
		// The differential toolset must also surface significant events.
		if len(s.Diffs) == 0 {
			t.Errorf("scene %s/%s: differential analysis found nothing", s.CPU, s.Name)
		}
	}
}

func TestFig1bDecodesSecret(t *testing.T) {
	r, err := Fig1b(Exec{}, 5, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decoded != r.Secret {
		t.Fatalf("Fig 1b decoded %q, want %q", r.Decoded, r.Secret)
	}
	if r.ArgmaxVotes[r.Secret] == 0 {
		t.Fatal("no argmax votes at the secret")
	}
	if !strings.Contains(r.Render(), "red box") {
		t.Fatal("render missing the highlighted region")
	}
}

// TestSceneKASLRReportsProbeErrors pins that a probe overrunning its cycle
// budget fails each Table 3 scene (the KASLR scene, and the CC and MD
// scenes, whose first probe is a warm-up) instead of yielding a scene built
// from partial PMU runs.
func TestSceneKASLRReportsProbeErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*kernel.Kernel) (Table3Scene, error)
	}{
		{"sceneKASLR", sceneKASLR}, {"sceneCC", sceneCC(nil)}, {"sceneMD", sceneMD},
	} {
		m, err := cpu.NewMachine(cpu.I9_10980XE(), DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Boot(m, kernel.Config{KASLR: true})
		if err != nil {
			t.Fatal(err)
		}
		// Longer than a TLB eviction plus one probe's cycle budget, so the
		// first probe overruns it.
		m.Pipe.InjectStall(2_000_000)
		if _, err := c.run(k); err == nil {
			t.Errorf("%s built a scene although its first probe overran its budget", c.name)
		}
	}
}

func TestFig3FrontendShift(t *testing.T) {
	s, err := Fig3(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range s.KeyEvents {
		if !k.Match {
			t.Errorf("Fig 3 %s direction mismatch (measured %.1f→%.1f)", k.Event, k.GotA, k.GotB)
		}
	}
}

func TestFig4SignFlip(t *testing.T) {
	pts, err := Fig4(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.Delta <= 0 {
		t.Errorf("near fence: delta = %+.1f, want positive (trigger issues more)", first.Delta)
	}
	if last.Delta >= 0 {
		t.Errorf("far fence: delta = %+.1f, want negative (trigger issues fewer)", last.Delta)
	}
}

func TestThroughputShape(t *testing.T) {
	rows, err := Throughput(Exec{}, 8, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ThroughputRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	cc, md, rsb := byName["TET-CC"], byName["TET-MD"], byName["TET-RSB"]
	if !(rsb.Bps > cc.Bps && cc.Bps > md.Bps) {
		t.Errorf("ordering RSB > CC > MD violated: %.0f, %.0f, %.0f", rsb.Bps, cc.Bps, md.Bps)
	}
	// Working channels must be accurate at these payloads.
	for _, name := range []string{"TET-CC", "TET-MD", "TET-ZBL", "TET-RSB"} {
		if r := byName[name]; r.ErrRate > 0.15 {
			t.Errorf("%s error rate %.2f", name, r.ErrRate)
		}
	}
	slow, fast := byName["SMT-CC (reliable)"], byName["SMT-CC (SecSMT eval)"]
	if slow.ErrRate >= 0.05 {
		t.Errorf("reliable SMT bit error %.3f, want <5%%", slow.ErrRate)
	}
	if slow.Bps < 0.2 || slow.Bps > 10 {
		t.Errorf("reliable SMT %.2f B/s, want ~1", slow.Bps)
	}
	if fast.Bps < 50_000 {
		t.Errorf("SecSMT %.0f B/s, want ~268 KB/s regime", fast.Bps)
	}
	if fast.ErrRate < 0.05 {
		t.Errorf("SecSMT error %.3f implausibly low for the operating point", fast.ErrRate)
	}
	if !strings.Contains(RenderThroughput(rows), "TET-RSB") {
		t.Error("render missing rows")
	}
}

func TestKASLRSuiteOutcomes(t *testing.T) {
	rows, err := KASLRSuite(Exec{}, 8, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]KASLRRow{}
	for _, r := range rows {
		byKey[r.Name+"/"+r.CPU] = r
	}
	mustFind := []string{
		"TET-KASLR/Intel Core i9-10980XE",
		"TET-KASLR + KPTI/Intel Core i9-10980XE",
		"TET-KASLR + KPTI + FLARE/Intel Core i9-10980XE",
		"TET-KASLR + FLARE (no KPTI)/Intel Core i9-10980XE",
		"TET-KASLR in Docker/Intel Core i9-10980XE",
		"TET-KASLR/Intel Core i7-6700",
		"TET-KASLR/Intel Core i7-7700",
		"TET-KASLR vs FGKASLR/Intel Core i9-10980XE",
		"prefetch-KASLR (baseline)/Intel Core i9-10980XE",
	}
	for _, key := range mustFind {
		r, ok := byKey[key]
		if !ok {
			t.Fatalf("missing row %s", key)
		}
		if !r.Found {
			t.Errorf("%s: expected success", key)
		}
	}
	mustFail := []string{
		"TET-KASLR/AMD Ryzen 5 5600G",
		"TET-KASLR vs secure TLB/i9-10980XE + secure TLB",
		"prefetch-KASLR + FLARE (baseline)/Intel Core i9-10980XE",
	}
	for _, key := range mustFail {
		r, ok := byKey[key]
		if !ok {
			t.Fatalf("missing row %s", key)
		}
		if r.Found {
			t.Errorf("%s: expected failure", key)
		}
	}
	// Scan-time shape: sub-second-scale, same order as the paper's 0.8829 s.
	plain := byKey["TET-KASLR/Intel Core i9-10980XE"]
	if plain.Seconds < 0.05 || plain.Seconds > 5 {
		t.Errorf("plain scan %.3f s out of the paper's regime", plain.Seconds)
	}
}

func TestMitigationMatrixMatchesPaper(t *testing.T) {
	rows, err := Mitigations(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diffs := MitigationsAgree(rows); !ok {
		t.Fatalf("§6 matrix deviates: %v\n%s", diffs, RenderMitigations(rows))
	}
	if len(rows) != len(PaperMitigations) {
		t.Fatalf("rows = %d, want %d", len(rows), len(PaperMitigations))
	}
}

func TestStealthAgainstCacheDetector(t *testing.T) {
	rows, err := Stealth(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StealthRow{}
	for _, r := range rows {
		byName[r.Attack] = r
	}
	if r := byName["TET-MD"]; r.Detected || r.AlarmRate > 0.1 {
		t.Errorf("TET-MD should evade the cache detector (alarm rate %.2f)", r.AlarmRate)
	}
	if r := byName["Meltdown-F+R"]; !r.Detected {
		t.Errorf("Meltdown-F+R should be flagged (alarm rate %.2f)", r.AlarmRate)
	}
}

func TestCondFamilyAllConditionsCarrySignal(t *testing.T) {
	rows, err := CondFamily(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("conditions = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Delta < 3 {
			t.Errorf("%s: TET delta %+d too small — condition family claim broken", r.Name, r.Delta)
		}
	}
}

func TestRunAllReportJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full report")
	}
	p := DefaultSweepParams()
	p.ThroughputBytes = 4
	p.KASLRReps = 3
	p.Fig1bBatches = 3
	r, err := RunAll(Exec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Table2Agrees || !r.MitigationsAgree {
		t.Fatalf("report disagrees with the paper: %+v", r.Table2Deviations)
	}
	var sink strings.Builder
	if err := r.WriteJSON(&sink); err != nil {
		t.Fatal(err)
	}
	out := sink.String()
	for _, want := range []string{"TET-RSB", "DTLB_LOAD_MISSES.WALK_ACTIVE", "KASLR", "CondFamily"} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// goldenReportSHA256 is the SHA-256 of RunAll's JSON report at
// TestSweepsMatchReport's sizes, captured before the attack layer's leak
// paths were merged into one. Every served byte must keep it.
const goldenReportSHA256 = "e00b0a9ea570b50ea8d03e544735650e62eadc4039a3f667fcff2f2b634f2f67"

// TestSweepsMatchReport pins that the served sweeps and the report are one
// set of artefacts: every artefact runs through RunSweep, each bundled one
// encodes to exactly its Report field, and "report" is RunAll's bundle.
func TestSweepsMatchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report plus every sweep")
	}
	paperOrder := []string{"table1", "table2", "table3", "fig1b", "fig3", "fig4",
		"throughput", "kaslr", "mitigations", "stealth", "condfamily", "noise"}
	if got := Artefacts(); !slices.Equal(got, paperOrder) {
		t.Fatalf("Artefacts() = %v, want %v", got, paperOrder)
	}
	want := append(Artefacts(), "report")
	sort.Strings(want)
	if got := Sweeps(); !slices.Equal(got, want) {
		t.Fatalf("Sweeps() = %v, want %v", got, want)
	}

	p := DefaultSweepParams()
	p.ThroughputBytes = 4
	p.KASLRReps = 3
	p.Fig1bBatches = 3
	r, err := RunAll(Exec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(report)); got != goldenReportSHA256 {
		t.Errorf("report SHA-256 %s, want %s: an artefact's bytes changed", got, goldenReportSHA256)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(report, &fields); err != nil {
		t.Fatal(err)
	}
	// The Report field each bundled artefact fills.
	field := map[string]string{
		"table2": "Table2", "table3": "Table3", "fig1b": "Fig1b", "fig4": "Fig4",
		"throughput": "Throughput", "kaslr": "KASLR", "mitigations": "Mitigations",
		"stealth": "Stealth", "condfamily": "CondFamily", "noise": "NoiseSweep",
	}
	for _, name := range append(Artefacts(), "report") {
		sr, err := RunSweep(Exec{}, name, p)
		if err != nil {
			t.Fatalf("RunSweep(%q): %v", name, err)
		}
		want := report
		if name != "report" {
			f, bundled := field[name]
			if !bundled {
				continue
			}
			want = fields[f]
		}
		got, err := json.Marshal(sr.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("RunSweep(%q) result differs from its slot in the report:\n got %.200s\nwant %.200s", name, got, want)
		}
	}

	_, err = RunSweep(Exec{}, "tabel2", p)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(Sweeps())) {
		t.Fatalf("unknown sweep: err = %v, want one listing %v", err, Sweeps())
	}
}

func TestNoiseSweepShape(t *testing.T) {
	pts, err := NoiseSweep(Exec{}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	find := func(sigma float64, batches int, dec string) NoisePoint {
		for _, p := range pts {
			if p.Sigma == sigma && p.Batches == batches && p.Decoder == dec {
				return p
			}
		}
		t.Fatalf("point sigma=%v batches=%d %s missing", sigma, batches, dec)
		return NoisePoint{}
	}
	if !find(1.2, 3, "vote").Recovered {
		t.Error("vote decoder should work at realistic jitter")
	}
	if find(3, 9, "vote").Recovered {
		t.Error("vote decoder should die once jitter rivals the signal")
	}
	if !find(6, 21, "median").Recovered {
		t.Error("median decoder should recover the attack at high jitter")
	}
}
