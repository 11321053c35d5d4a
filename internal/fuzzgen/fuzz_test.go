package fuzzgen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"whisper/internal/fuzzgen"
)

// baselineSeeds are inputs added to every fuzz target in addition to the
// committed corpus: the degenerate empties plus a small deterministic stream,
// so a corpus-less checkout still exercises each target's main path.
func baselineSeeds() [][]byte {
	long := make([]byte, 64)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return [][]byte{{}, {0}, long}
}

// corpusFiles lists the committed corpus of a fuzz target and fails tb when
// testdata/fuzz/<target> holds no file, so a lost corpus cannot pass as a
// clean run.
func corpusFiles(tb testing.TB, target string) []string {
	dir := filepath.Join("testdata", "fuzz", target)
	des, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		tb.Fatal(err)
	}
	var files []string
	for _, de := range des {
		if !de.IsDir() {
			files = append(files, filepath.Join(dir, de.Name()))
		}
	}
	if len(files) == 0 {
		tb.Fatalf("no committed seed corpus in %s", dir)
	}
	return files
}

// corpusValue decodes a committed corpus file: the toolchain's
// "go test fuzz v1" header and one []byte literal.
func corpusValue(b []byte) ([]byte, error) {
	header, body, _ := strings.Cut(string(b), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	if header != "go test fuzz v1" || !ok || !strings.HasSuffix(lit, ")") {
		return nil, fmt.Errorf("not a go test fuzz v1 file holding one []byte")
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	return []byte(s), err
}

// TestCommittedCorpus runs every committed corpus entry through its
// target's check. The toolchain's replay (subtest <FuzzX>/<file>) runs a
// target's entries one after another; here they run in parallel, so state
// shared between concurrent checks shows up under -race.
func TestCommittedCorpus(t *testing.T) {
	for _, target := range []struct {
		name  string
		check func([]byte) error
	}{
		{"FuzzInterpVsPipeline", fuzzgen.CheckInterpVsPipeline},
		{"FuzzPipelineInvariants", fuzzgen.CheckPipelineInvariants},
		{"FuzzServerCanonicalization", fuzzgen.CheckServerCanonicalization},
		{"FuzzSnapshotRestore", fuzzgen.CheckSnapshotRestore},
		{"FuzzRingAssignment", fuzzgen.CheckRingAssignment},
	} {
		t.Run(target.name, func(t *testing.T) {
			for _, path := range corpusFiles(t, target.name) {
				t.Run(filepath.Base(path), func(t *testing.T) {
					t.Parallel()
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data, err := corpusValue(b)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					if err := target.check(data); err != nil {
						t.Fatalf("committed corpus entry regressed: %v", err)
					}
				})
			}
		})
	}
}

// fuzzTarget seeds f and fuzzes check. The toolchain replays every file in
// testdata/fuzz/<f.Name()> as a subtest; an empty directory fails the target.
func fuzzTarget(f *testing.F, check func([]byte) error) {
	corpusFiles(f, f.Name())
	for _, seed := range baselineSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := check(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzInterpVsPipeline is the differential target: the sequential
// architectural interpreter and the out-of-order pipeline must leave
// identical architectural state on every generated program, including ones
// with faulting transient windows.
func FuzzInterpVsPipeline(f *testing.F) { fuzzTarget(f, fuzzgen.CheckInterpVsPipeline) }

// FuzzPipelineInvariants drives machine-reuse, SMT-lockstep and kernel-probe
// harnesses with a pipeline.InvariantChecker attached, failing on any
// structural breach (occupancy bounds, retire order, uop leaks across Reset).
func FuzzPipelineInvariants(f *testing.F) { fuzzTarget(f, fuzzgen.CheckPipelineInvariants) }

// FuzzServerCanonicalization checks the serving cache's contract: Normalize
// is an idempotent fixpoint, Hash is stable, and distinct canonical requests
// never collide.
func FuzzServerCanonicalization(f *testing.F) { fuzzTarget(f, fuzzgen.CheckServerCanonicalization) }

// FuzzSnapshotRestore captures machines and booted kernels mid-workload and
// replays the identical remainder on the capture source and on forks (fresh
// and dirty-pooled), asserting cycle counts, registers, PMU bank, RNG cursor,
// and physical memory are bit-identical.
func FuzzSnapshotRestore(f *testing.F) { fuzzTarget(f, fuzzgen.CheckSnapshotRestore) }

// FuzzRingAssignment feeds arbitrary backend sets and request keys into the
// cluster's consistent-hash ring, asserting total, panic-free, in-range,
// deterministic assignment and the minimal-remap property.
func FuzzRingAssignment(f *testing.F) { fuzzTarget(f, fuzzgen.CheckRingAssignment) }
