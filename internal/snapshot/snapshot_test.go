package snapshot_test

import (
	"fmt"
	"testing"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/snapshot"
)

// bootFresh builds a machine and boots a kernel on it outside any pool, the
// reference path every fork must be bit-identical to.
func bootFresh(t *testing.T, model cpu.Model, cfg kernel.Config, seed int64) *kernel.Kernel {
	t.Helper()
	m, err := cpu.NewMachine(model, seed)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// runWorkload runs a real attack (the TET covert channel) on a kernel and
// digests everything observable: leaked data, final cycle, and the full PMU
// bank. Equal digests mean bit-identical executions.
func runWorkload(t *testing.T, k *kernel.Kernel) string {
	t.Helper()
	cc, err := core.NewTETCovertChannel(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Transfer([]byte("whisper!"))
	if err != nil {
		t.Fatal(err)
	}
	m := k.Machine()
	return fmt.Sprintf("%x c=%d pmu=%v", res.Data, m.Pipe.Cycle(), m.PMU.Snapshot())
}

func TestForkIsBitIdenticalToReboot(t *testing.T) {
	model, cfg, seed := cpu.I7_7700(), kernel.Config{KASLR: true}, int64(11)

	ref := runWorkload(t, bootFresh(t, model, cfg, seed))

	src := bootFresh(t, model, cfg, seed)
	snap, err := snapshot.CaptureKernel(src)
	if err != nil {
		t.Fatal(err)
	}

	// Capture must not perturb the source: it still runs to the reference.
	if got := runWorkload(t, src); got != ref {
		t.Fatalf("capture perturbed source machine:\n got %s\nwant %s", got, ref)
	}

	pool := cpu.NewPool()
	fk, err := snap.ForkKernel(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkload(t, fk); got != ref {
		t.Fatalf("fork diverged from fresh boot:\n got %s\nwant %s", got, ref)
	}

	// A second fork into the recycled (dirty, un-Reset) machine must also
	// match: CopyStateFrom owes nothing to the target's prior state.
	pool.Put(fk.Machine())
	fk2, err := snap.ForkKernel(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkload(t, fk2); got != ref {
		t.Fatalf("pooled fork diverged from fresh boot:\n got %s\nwant %s", got, ref)
	}
	if st := pool.Stats(); st.Reuses != 1 {
		t.Fatalf("second fork should reuse the pooled machine, stats %+v", st)
	}
}
