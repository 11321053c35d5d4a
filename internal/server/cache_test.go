package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/obs"
)

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := newCache(2, "", reg)
	if err != nil {
		t.Fatal(err)
	}
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, _, ok := c.get("a"); !ok { // touches a: b becomes the LRU entry
		t.Fatal("a missing before capacity was reached")
	}
	c.put("c", []byte("C"))
	if _, _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, h := range []string{"a", "c"} {
		if _, _, ok := c.get(h); !ok {
			t.Fatalf("%s evicted although it was not the LRU entry", h)
		}
	}
	if got := reg.Counter("server.cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
}

// TestCacheDiskSurvivesRestart checks the disk tier serves entries written
// by a previous cache instance — the whisperd -cache-dir restart story — and
// promotes them into memory.
func TestCacheDiskSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"hash":"h1"}` + "\n")

	c1, err := newCache(4, dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c1.put("aa11", body)

	reg := obs.NewRegistry()
	c2, err := newCache(4, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	got, tier, ok := c2.get("aa11")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("disk entry not served after restart: ok=%v body=%q", ok, got)
	}
	if tier != tierDisk {
		t.Fatalf("hit attributed to tier %q, want %q", tier, tierDisk)
	}
	if reg.Counter("server.cache.hits", obs.L("tier", "disk")).Value() != 1 {
		t.Fatal("hit not attributed to the disk tier")
	}
	if _, tier, ok := c2.get("aa11"); !ok || tier != tierMemory {
		t.Fatal("disk hit not promoted to memory")
	}
	if reg.Counter("server.cache.hits", obs.L("tier", "memory")).Value() != 1 {
		t.Fatal("promoted entry not served from the memory tier")
	}
}

// TestCacheDiskRejectsDamagedEntries checks a disk entry whose bytes do not
// match its checksum is never served: a bit-flipped entry, a truncated one
// and a bare body as older builds wrote it each read as a miss, are counted
// in server.cache.corrupt, and are moved aside so a fresh put serves again.
func TestCacheDiskRejectsDamagedEntries(t *testing.T) {
	body := []byte(`{"hash":"h1","rendered":"Table 2"}` + "\n")
	for _, tc := range []struct {
		name   string
		damage func(entry []byte) []byte
	}{
		{"bit-flipped", func(e []byte) []byte { e[len(e)-3] ^= 0x04; return e }},
		{"truncated", func(e []byte) []byte { return e[:len(e)-5] }},
		{"no checksum", func([]byte) []byte { return body }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, err := newCache(4, dir, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			c1.put("aa11", body)
			path := c1.disk.path("aa11")
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(entry), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			c2, err := newCache(4, dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			if got, tier, ok := c2.get("aa11"); ok {
				t.Fatalf("damaged entry served from %s: %q", tier, got)
			}
			if got := reg.Counter("server.cache.corrupt").Value(); got != 1 {
				t.Fatalf("server.cache.corrupt = %d, want 1", got)
			}
			if got := reg.Counter("server.cache.misses").Value(); got != 1 {
				t.Fatalf("server.cache.misses = %d, want 1", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("damaged entry not moved aside: %v", err)
			}
			c2.put("aa11", body)
			c3, err := newCache(4, dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			if got, tier, ok := c3.get("aa11"); !ok || tier != tierDisk || !bytes.Equal(got, body) {
				t.Fatalf("rewritten entry: ok=%v tier=%q body=%q", ok, tier, got)
			}
		})
	}
}

// TestFlightCoalesces checks concurrent do() calls for one hash share a
// single execution: exactly one caller runs fn, everyone gets its bytes.
func TestFlightCoalesces(t *testing.T) {
	f := newFlight()
	var runs atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	const followers = 8
	var wg sync.WaitGroup
	results := make([][]byte, followers+1)
	sharedCount := atomic.Int64{}
	arrived := make(chan struct{}, followers)
	call := func(slot int, follower bool) {
		defer wg.Done()
		if follower {
			arrived <- struct{}{}
		}
		body, shared, err := f.do("h", func() ([]byte, error) {
			runs.Add(1)
			close(leaderIn)
			<-release
			return []byte("R"), nil
		})
		if err != nil {
			t.Errorf("do: %v", err)
		}
		if shared {
			sharedCount.Add(1)
		}
		results[slot] = body
	}
	wg.Add(1)
	go call(0, false)
	<-leaderIn // the leader holds the flight open; followers must join it
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go call(i, true)
	}
	for i := 0; i < followers; i++ {
		<-arrived
	}
	// Every follower is past its handshake and about to (or already does)
	// block on the leader's call; the leader cannot finish until release, so
	// the flight entry is still registered when each of them reads it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	// The bodies must all be the leader's bytes regardless of scheduling;
	// the coalescing accounting below is the deterministic part the flight
	// guarantees once every follower joined before the leader completed.
	for i, b := range results {
		if !bytes.Equal(b, []byte("R")) {
			t.Fatalf("caller %d got %q", i, b)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", got)
	}
	if sharedCount.Load() != followers {
		t.Fatalf("shared reported by %d callers, want %d", sharedCount.Load(), followers)
	}
}

// TestFlightPanicReleasesFollowers checks a panicking leader neither strands
// its followers nor leaves the hash stuck: the leader and the follower both
// get a *panicError, and a later do on the same hash runs fn again.
func TestFlightPanicReleasesFollowers(t *testing.T) {
	f := newFlight()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	type outcome struct {
		shared bool
		err    error
	}
	call := func(fn func() ([]byte, error)) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					out <- outcome{err: fmt.Errorf("do panicked: %v", r)}
				}
			}()
			_, shared, err := f.do("h", fn)
			out <- outcome{shared, err}
		}()
		return out
	}
	wait := func(who string, out <-chan outcome) outcome {
		t.Helper()
		select {
		case o := <-out:
			return o
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked 5s after the leader panicked", who)
			return outcome{}
		}
	}

	leader := call(func() ([]byte, error) {
		close(leaderIn)
		<-release
		panic("boom")
	})
	<-leaderIn
	follower := call(func() ([]byte, error) { return nil, errors.New("follower ran fn; it should have joined the leader") })
	time.Sleep(20 * time.Millisecond) // let the follower block on the leader's call
	close(release)

	var pe *panicError
	if o := wait("leader", leader); o.shared || !errors.As(o.err, &pe) || pe.value != "boom" {
		t.Errorf("leader got shared=%v err=%v, want its own *panicError(boom)", o.shared, o.err)
	}
	if o := wait("follower", follower); !o.shared || !errors.As(o.err, &pe) {
		t.Fatalf("follower got shared=%v err=%v, want the leader's *panicError", o.shared, o.err)
	}

	ran := false
	later := call(func() ([]byte, error) { ran = true; return []byte("R"), nil })
	if o := wait("later caller", later); o.shared || o.err != nil || !ran {
		t.Fatalf("later do: shared=%v err=%v ran=%v; want a fresh execution of fn", o.shared, o.err, ran)
	}
}
