package core

import (
	"errors"
	"testing"

	"whisper/internal/cpu"
	"whisper/internal/kernel"
	"whisper/internal/stats"
)

func bootOn(t *testing.T, model cpu.Model, cfg kernel.Config, seed int64) *kernel.Kernel {
	t.Helper()
	m := cpu.MustMachine(model, seed)
	k, err := kernel.Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestTETMeltdownLeaksSecret(t *testing.T) {
	k := bootOn(t, cpu.I7_7700(), kernel.Config{KASLR: true}, 101)
	secret := []byte("WHISPER")
	k.WriteSecret(secret)
	md, err := NewTETMeltdown(k)
	if err != nil {
		t.Fatal(err)
	}
	md.Batches = 3
	res, err := md.Leak(k.SecretVA(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er > 0.15 {
		t.Fatalf("TET-MD error rate %.2f: got %q want %q", er, res.Data, secret)
	}
	if res.Bps <= 0 {
		t.Fatal("no throughput reported")
	}
}

func TestTETMeltdownFailsOnPatchedCPU(t *testing.T) {
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true}, 102)
	secret := []byte("WXYZ")
	k.WriteSecret(secret)
	md, err := NewTETMeltdown(k)
	if err != nil {
		t.Fatal(err)
	}
	md.Batches = 2
	res, err := md.Leak(k.SecretVA(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er < 0.5 {
		t.Fatalf("TET-MD should fail on patched CPU, error rate %.2f (%q)", er, res.Data)
	}
}

func TestTETZombieloadLeaksVictimStream(t *testing.T) {
	k := bootOn(t, cpu.I7_7700(), kernel.Config{KASLR: true}, 103)
	secret := []byte("ZOMBIE")
	k.WriteSecret(secret)
	z, err := NewTETZombieload(k)
	if err != nil {
		t.Fatal(err)
	}
	z.Batches = 3
	res, err := z.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er > 0.2 {
		t.Fatalf("TET-ZBL error rate %.2f: got %q want %q", er, res.Data, secret)
	}
}

func TestTETZombieloadFailsOnAMD(t *testing.T) {
	k := bootOn(t, cpu.Ryzen5600G(), kernel.Config{KASLR: true}, 104)
	secret := []byte("ZOMB")
	k.WriteSecret(secret)
	z, err := NewTETZombieload(k)
	if err != nil {
		t.Fatal(err)
	}
	z.Batches = 2
	res, err := z.Leak(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er < 0.5 {
		t.Fatalf("TET-ZBL should fail on Zen 3, error rate %.2f (%q)", er, res.Data)
	}
}

func TestTETCovertChannelAllModels(t *testing.T) {
	payload := []byte{0x00, 0xff, 0x5a, 0xa5, 'W', 'h', 'i', 's'}
	for _, model := range cpu.AllModels() {
		model := model
		t.Run(model.Microarch, func(t *testing.T) {
			k := bootOn(t, model, kernel.Config{KASLR: true}, 105)
			cc, err := NewTETCovertChannel(k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cc.Transfer(payload)
			if err != nil {
				t.Fatal(err)
			}
			if er := stats.ByteErrorRate(res.Data, payload); er > 0.05 {
				t.Fatalf("TET-CC error rate %.2f on %s (got %x)", er, model.Name, res.Data)
			}
		})
	}
}

func TestTETRSBLeaksInProcessSecret(t *testing.T) {
	k := bootOn(t, cpu.I9_13900K(), kernel.Config{KASLR: true}, 106)
	m := k.Machine()
	secret := []byte("RSB!")
	secretVA := uint64(kernel.UserDataBase + 0x100)
	pa, ok := k.UserAS().Translate(secretVA)
	if !ok {
		t.Fatal("secret VA unmapped")
	}
	m.Phys.StoreBytes(pa, secret)
	rsb, err := NewTETRSB(k)
	if err != nil {
		t.Fatal(err)
	}
	rsb.Batches = 2
	res, err := rsb.Leak(secretVA, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er > 0.25 {
		t.Fatalf("TET-RSB error rate %.2f: got %q want %q", er, res.Data, secret)
	}
}

func TestTETRSBOnKabyLake(t *testing.T) {
	k := bootOn(t, cpu.I7_7700(), kernel.Config{KASLR: true}, 107)
	m := k.Machine()
	secret := []byte{0x42}
	secretVA := uint64(kernel.UserDataBase + 0x200)
	pa, _ := k.UserAS().Translate(secretVA)
	m.Phys.StoreBytes(pa, secret)
	rsb, err := NewTETRSB(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rsb.LeakByte(secretVA)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x42 {
		t.Fatalf("TET-RSB byte = %#x, want 0x42", got)
	}
}

func TestTETKASLRPlain(t *testing.T) {
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true}, 108)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != k.BaseSlot() {
		t.Fatalf("KASLR slot = %d, want %d", res.Slot, k.BaseSlot())
	}
	if res.Base != k.KASLRBase() {
		t.Fatalf("KASLR base = %#x, want %#x", res.Base, k.KASLRBase())
	}
	if res.Seconds <= 0 {
		t.Fatal("no time accounted")
	}
}

func TestTETKASLRUnderKPTI(t *testing.T) {
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true}, 109)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != k.BaseSlot() {
		t.Fatalf("KASLR+KPTI slot = %d, want %d", res.Slot, k.BaseSlot())
	}
}

func TestTETKASLRUnderKPTIAndFLARE(t *testing.T) {
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true, FLARE: true}, 110)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != k.BaseSlot() {
		t.Fatalf("KASLR+KPTI+FLARE slot = %d, want %d", res.Slot, k.BaseSlot())
	}
}

func TestTETKASLRInDocker(t *testing.T) {
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, KPTI: true, Docker: true}, 111)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != k.BaseSlot() {
		t.Fatalf("KASLR in Docker slot = %d, want %d", res.Slot, k.BaseSlot())
	}
}

func TestTETKASLRFailsOnAMD(t *testing.T) {
	k := bootOn(t, cpu.Ryzen5600G(), kernel.Config{KASLR: true}, 112)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot == k.BaseSlot() {
		t.Fatalf("TET-KASLR should not locate the base on Zen 3 (no TLB fill on fault), but found slot %d", res.Slot)
	}
}

func TestFGKASLRMitigatesExploitation(t *testing.T) {
	// The attack still finds the base, but function addresses no longer
	// follow from it (§6.2).
	k := bootOn(t, cpu.I9_10980XE(), kernel.Config{KASLR: true, FGKASLR: true}, 113)
	a, err := NewTETKASLR(k)
	if err != nil {
		t.Fatal(err)
	}
	a.Reps = 3
	res, err := a.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != k.BaseSlot() {
		t.Fatalf("base should still be found under FGKASLR; got %d want %d", res.Slot, k.BaseSlot())
	}
	// Code-reuse step: derive commit_creds from the base using the known
	// image offset. Under FGKASLR this must point at the wrong place.
	derived := res.Base + kernel.KernelFunctions["commit_creds"]
	actual, err := k.FunctionVA("commit_creds")
	if err != nil {
		t.Fatal(err)
	}
	if derived == actual {
		t.Fatal("FGKASLR did not move commit_creds; mitigation ineffective")
	}
}

func TestProberRejectsBadInput(t *testing.T) {
	k := bootOn(t, cpu.I7_7700(), kernel.Config{}, 114)
	pr, err := NewProber(k.Machine(), SuppressTSX, true)
	if err != nil {
		t.Fatal(err)
	}
	rsb, err := NewTETRSB(k)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := NewTETSpectreV1(k)
	if err != nil {
		t.Fatal(err)
	}
	// Every decoder rejects a non-positive batch count before it probes.
	start := k.Machine().Pipe.Cycle()
	for _, batches := range []int{0, -2} {
		if _, err := pr.SweepByte(UnmappedVA, batches, SignLonger, nil); err == nil {
			t.Fatalf("SweepByte accepted %d batches", batches)
		}
		if _, err := pr.SweepByteMedian(UnmappedVA, batches, SignLonger, nil); err == nil {
			t.Fatalf("SweepByteMedian accepted %d batches", batches)
		}
		rsb.Batches = batches
		if _, err := rsb.LeakByte(kernel.UserDataBase); err == nil {
			t.Fatalf("RSB.LeakByte accepted %d batches", batches)
		}
		v1.Batches = batches
		if _, err := v1.LeakByte(v1.ArrayLen()); err == nil {
			t.Fatalf("SpectreV1.LeakByte accepted %d batches", batches)
		}
	}
	if end := k.Machine().Pipe.Cycle(); end != start {
		t.Fatalf("rejected decodes ran %d simulated cycles", end-start)
	}
	if _, err := NewTETMeltdown(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := NewTETKASLR(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := NewTETRSB(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := NewTETZombieload(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := NewTETCovertChannel(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

// TestSendByteSendsHighBitFirst pins the covert channels' bit codec: bits
// go out most significant first, the byte is made of the receiver's
// decisions (not of the bits sent), and an error at bit k ends the byte
// with no later bit sent.
func TestSendByteSendsHighBitFirst(t *testing.T) {
	for _, c := range []struct {
		b    byte
		sent string
	}{
		{0x00, "00000000"}, {0xff, "11111111"}, {0x80, "10000000"},
		{0x01, "00000001"}, {0xa5, "10100101"}, {'W', "01010111"},
	} {
		var sent []byte
		got, err := SendByte(c.b, func(bit bool) (bool, error) {
			ch := byte('0')
			if bit {
				ch = '1'
			}
			sent = append(sent, ch)
			return !bit, nil // an inverting receiver
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(sent) != c.sent {
			t.Errorf("SendByte(%#x) sent %s, want %s", c.b, sent, c.sent)
		}
		if got != ^c.b {
			t.Errorf("SendByte(%#x) = %#x from an inverting receiver, want %#x", c.b, got, ^c.b)
		}
	}
	boom := errors.New("receiver lost")
	for k := 0; k < 8; k++ {
		sent := 0
		_, err := SendByte(0xa5, func(bit bool) (bool, error) {
			sent++
			if sent == k+1 {
				return false, boom
			}
			return bit, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("error at bit %d: SendByte returned %v, want %v", k, err, boom)
		}
		if sent != k+1 {
			t.Errorf("error at bit %d: %d bits sent, want %d", k, sent, k+1)
		}
	}
}

func TestProberFallsBackToSignalWithoutTSX(t *testing.T) {
	k := bootOn(t, cpu.I9_13900K(), kernel.Config{}, 115) // no TSX
	pr, err := NewProber(k.Machine(), SuppressTSX, true)
	if err != nil {
		t.Fatal(err)
	}
	if pr.suppress != SuppressSignal {
		t.Fatal("prober did not fall back to signal suppression")
	}
	if _, err := pr.Probe(UnmappedVA, 0, 0); err != nil {
		t.Fatalf("signal-suppressed probe failed: %v", err)
	}
}

func TestTETSpectreV1LeaksOutOfBounds(t *testing.T) {
	k := bootOn(t, cpu.I9_13900K(), kernel.Config{KASLR: true}, 120)
	v1, err := NewTETSpectreV1(k)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a secret just past the bounded array.
	secret := []byte("V1!")
	pa, ok := k.UserAS().Translate(v1.ArrayVA() + v1.ArrayLen())
	if !ok {
		t.Fatal("secret region unmapped")
	}
	k.Machine().Phys.StoreBytes(pa, secret)
	res, err := v1.Leak(v1.ArrayLen(), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if er := stats.ByteErrorRate(res.Data, secret); er > 0.34 {
		t.Fatalf("TET-V1 error rate %.2f: got %q want %q", er, res.Data, secret)
	}
}

func TestTETSpectreV1RejectsNil(t *testing.T) {
	if _, err := NewTETSpectreV1(nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
}
