package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"

	"whisper/internal/obs"
)

// cache is the content-addressed result store: an in-memory LRU over the
// envelope bytes, optionally backed by an on-disk store that survives daemon
// restarts. Keys are canonical request hashes (Request.Hash), so a hit is
// sound by construction — the determinism contract says equal hashes mean
// byte-equal results.
type cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recent
	maxN    int
	bytes   int64

	disk *diskStore // nil when no -cache-dir

	reg *obs.Registry
}

// cacheEntry is one resident result.
type cacheEntry struct {
	hash string
	body []byte
}

// newCache builds a cache holding up to maxEntries results in memory
// (<= 0 disables the memory tier) and, when dir is non-empty, mirroring
// every result into dir.
func newCache(maxEntries int, dir string, reg *obs.Registry) (*cache, error) {
	c := &cache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		maxN:    maxEntries,
		reg:     reg,
	}
	if dir != "" {
		ds, err := newDiskStore(dir)
		if err != nil {
			return nil, err
		}
		c.disk = ds
	}
	return c, nil
}

// Cache tier names, reported in metrics labels and cache-hit log events.
const (
	tierMemory = "memory"
	tierDisk   = "disk"
)

// get returns the cached body for hash and the tier that served it,
// consulting memory then disk. A disk hit is promoted into the memory tier.
func (c *cache) get(hash string) (body []byte, tier string, ok bool) {
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		c.reg.Counter("server.cache.hits", obs.L("tier", tierMemory)).Inc()
		return body, tierMemory, true
	}
	c.mu.Unlock()
	if c.disk != nil {
		body, err := c.disk.get(hash)
		switch {
		case err == nil:
			c.reg.Counter("server.cache.hits", obs.L("tier", tierDisk)).Inc()
			c.putMemory(hash, body)
			return body, tierDisk, true
		case errors.Is(err, errCorrupt):
			c.reg.Counter("server.cache.corrupt").Inc()
		}
	}
	c.reg.Counter("server.cache.misses").Inc()
	return nil, "", false
}

// put stores a freshly computed body in every tier.
func (c *cache) put(hash string, body []byte) {
	c.putMemory(hash, body)
	if c.disk != nil {
		if err := c.disk.put(hash, body); err != nil {
			// The disk tier is an optimisation; a write failure only costs a
			// future cold run.
			c.reg.Counter("server.cache.disk.errors").Inc()
		}
	}
}

// putMemory inserts into the LRU tier, evicting from the back past capacity.
func (c *cache) putMemory(hash string, body []byte) {
	if c.maxN <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&cacheEntry{hash: hash, body: body})
	c.bytes += int64(len(body))
	for c.order.Len() > c.maxN {
		back := c.order.Back()
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.hash)
		c.bytes -= int64(len(ent.body))
		c.reg.Counter("server.cache.evictions").Inc()
	}
	c.reg.Gauge("server.cache.entries").Set(float64(c.order.Len()))
	c.reg.Gauge("server.cache.bytes").Set(float64(c.bytes))
}

// diskStore persists results as <dir>/<hh>/<hash>.json, sharded by the
// first hash byte to keep directories small. Each entry is a checksum line,
// "sha256:" and the hex SHA-256 of the body, followed by the body. Writes go
// through a temp file and rename, so a crashed write never leaves a partial
// entry; the checksum catches what else can damage a file on disk.
type diskStore struct {
	dir string
}

func newDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	return &diskStore{dir: dir}, nil
}

// path maps a hash to its entry file; hashes are hex, so the shard prefix is
// always a safe directory name.
func (d *diskStore) path(hash string) string {
	if len(hash) < 2 || strings.ContainsAny(hash, "/\\.") {
		return filepath.Join(d.dir, "_", hash+".json")
	}
	return filepath.Join(d.dir, hash[:2], hash+".json")
}

// errCorrupt reports a disk entry whose body does not match its checksum:
// truncated, bit-flipped, foreign, or written before entries carried one.
var errCorrupt = errors.New("server: corrupt cache entry")

// checksumLine is the first line of a disk entry holding a body with the
// given SHA-256.
func checksumLine(sum [sha256.Size]byte) string {
	return "sha256:" + hex.EncodeToString(sum[:])
}

// get returns the body stored for hash. A corrupt entry is renamed aside to
// <path>.corrupt, so it is reported once and the next put replaces it.
func (d *diskStore) get(hash string) ([]byte, error) {
	p := d.path(hash)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	line, body, ok := bytes.Cut(raw, []byte("\n"))
	if !ok || string(line) != checksumLine(sha256.Sum256(body)) {
		// If the rename fails, the entry stays until the next put replaces it.
		_ = os.Rename(p, p+".corrupt")
		return nil, errCorrupt
	}
	return body, nil
}

func (d *diskStore) put(hash string, body []byte) error {
	p := d.path(hash)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+hash+".tmp*")
	if err != nil {
		return err
	}
	entry := append([]byte(checksumLine(sha256.Sum256(body))+"\n"), body...)
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// flight coalesces concurrent identical requests: the first caller for a
// hash executes, the rest block on the same call and share its bytes (and
// its error). This is the singleflight pattern; soundness again rides on the
// determinism contract — all callers asked for the same pure computation.
type flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

func newFlight() *flight {
	return &flight{calls: make(map[string]*flightCall)}
}

// panicError is a panic recovered from a flight's fn: the leader and every
// follower receive it in place of a result.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("server: execution panicked: %v", e.value) }

// do runs fn once per in-flight hash. shared reports whether this caller
// piggybacked on another's execution. If fn panics, every caller gets a
// *panicError and the hash is free to run again.
func (f *flight) do(hash string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	f.mu.Lock()
	if call, ok := f.calls[hash]; ok {
		f.mu.Unlock()
		<-call.done
		return call.body, true, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	f.calls[hash] = call
	f.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			call.body, call.err = nil, &panicError{value: r, stack: debug.Stack()}
		}
		f.mu.Lock()
		delete(f.calls, hash)
		f.mu.Unlock()
		close(call.done)
		body, err = call.body, call.err
	}()
	call.body, call.err = fn()
	return call.body, false, call.err
}
