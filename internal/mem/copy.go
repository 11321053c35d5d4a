package mem

import "fmt"

// CopyFrom makes c observationally identical to src: the same lines valid
// with the same tags and LRU timestamps, the same tick and statistics. Both
// caches must share geometry (same model configuration); the copy performs
// no allocations. It is sparse: c's generation bump invalidates everything,
// then only src's valid lines — a small fraction after a boot — are written,
// so the cost is one sequential read of src's metadata rather than a full
// memmove of it.
func (c *Cache) CopyFrom(src *Cache) {
	if c.nsets != src.nsets || c.ways != src.ways || c.shift != src.shift {
		panic(fmt.Sprintf("mem: CopyFrom geometry mismatch %s: %dx%d vs %dx%d",
			c.name, c.nsets, c.ways, src.nsets, src.ways))
	}
	c.gen++
	for i := range src.lines {
		if src.lines[i].gen == src.gen {
			c.lines[i] = cacheLine{tag: src.lines[i].tag, gen: c.gen, used: src.lines[i].used}
		}
	}
	c.tick = src.tick
	c.hits = src.hits
	c.misses = src.misses
}

// CopyFrom makes l's entries, allocation cursor, and fill count identical to
// src. Both buffers must have the same size; no allocations.
func (l *LFB) CopyFrom(src *LFB) {
	if len(l.entries) != len(src.entries) {
		panic(fmt.Sprintf("mem: LFB CopyFrom size mismatch %d vs %d",
			len(l.entries), len(src.entries)))
	}
	copy(l.entries, src.entries)
	l.next = src.next
	l.filled = src.filled
}

// CopyFrom copies every cache level from src. Physical memory is copied
// separately (the hierarchies may share or not share a Physical).
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1D.CopyFrom(src.L1D)
	h.L1I.CopyFrom(src.L1I)
	h.L2.CopyFrom(src.L2)
	h.L3.CopyFrom(src.L3)
	h.lat = src.lat
}

// CacheImage is a compact record of a cache's valid lines, captured once and
// replayed many times. LoadImage costs O(valid lines) regardless of geometry,
// where even a generation-sparse CopyFrom still scans every line's metadata —
// megabytes at LLC sizes, the term that dominated snapshot forks.
type CacheImage struct {
	idx                []int32
	lines              []cacheLine
	tick, hits, misses uint64
}

// Image captures the cache's current valid lines and statistics.
func (c *Cache) Image() *CacheImage {
	img := &CacheImage{tick: c.tick, hits: c.hits, misses: c.misses}
	for i := range c.lines {
		if c.lines[i].gen == c.gen {
			img.idx = append(img.idx, int32(i))
			img.lines = append(img.lines, c.lines[i])
		}
	}
	return img
}

// LoadImage makes c observationally identical to the cache Image was taken
// from. The geometries must match (same model configuration); no allocations.
func (c *Cache) LoadImage(img *CacheImage) {
	c.gen++
	for k, i := range img.idx {
		c.lines[i] = cacheLine{tag: img.lines[k].tag, gen: c.gen, used: img.lines[k].used}
	}
	c.tick, c.hits, c.misses = img.tick, img.hits, img.misses
}

// HierImage is a CacheImage per level — the hierarchy half of a snapshot.
type HierImage struct {
	l1d, l1i, l2, l3 *CacheImage
	lat              Latencies
}

// Image captures every level's valid lines.
func (h *Hierarchy) Image() *HierImage {
	return &HierImage{
		l1d: h.L1D.Image(), l1i: h.L1I.Image(),
		l2: h.L2.Image(), l3: h.L3.Image(),
		lat: h.lat,
	}
}

// LoadImage restores every level from the image, as CopyFrom would from the
// hierarchy it was captured on.
func (h *Hierarchy) LoadImage(img *HierImage) {
	h.L1D.LoadImage(img.l1d)
	h.L1I.LoadImage(img.l1i)
	h.L2.LoadImage(img.l2)
	h.L3.LoadImage(img.l3)
	h.lat = img.lat
}
