// Package mem models the data-side memory hierarchy of the baseline SMT
// processor (Table IV): 64KB 2-way L1 data cache, 512KB 8-way unified L2,
// 4MB 16-way unified L3 (all with 64-byte lines), a 512-entry fully
// associative data TLB over 8KB pages, the stream-buffer hardware prefetcher,
// and MSHR-style coalescing of outstanding misses.
//
// The hierarchy is shared by all SMT contexts, so co-scheduled threads evict
// each other's data exactly as in the paper's first cache-interference
// effect. The package also owns the two measurement facilities the paper's
// characterization depends on: per-thread memory-level parallelism accounting
// using the Chou et al. definition (average number of long-latency loads
// outstanding while at least one is outstanding), and the "serialize
// long-latency loads" mode used to quantify the performance impact of MLP
// (Table I, fifth column).
package mem

import "slices"

// CacheConfig sizes one level of the hierarchy.
type CacheConfig struct {
	SizeBytes int   `json:"size_bytes"` // total capacity
	Ways      int   `json:"ways"`       // associativity
	LineBytes int   `json:"line_bytes"` // line size
	Latency   int64 `json:"latency"`    // load-to-use latency on a hit at this level
}

// Cache is a set-associative cache with true-LRU replacement. It tracks tags
// only — the simulator is timing-directed, not data-directed.
type Cache struct {
	sets    int
	ways    int
	latency int64
	tags    []uint64
	valid   []bool
	lru     []uint64
	tick    uint64

	// Statistics.
	Accesses uint64
	Misses   uint64
}

// NewCache returns an empty cache sized by cfg. Sets are derived from
// capacity, associativity and line size; cfg must describe at least one set.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// Reset empties c and sizes it by cfg, reusing its arrays when they are large
// enough. Clearing the valid bits alone is exact: a way's tag and LRU stamp
// are read only while it is valid (Insert fills an invalid way in preference
// to any valid one and compares only valid ways' stamps), so whatever an
// invalid way still holds is never seen.
func (c *Cache) Reset(cfg CacheConfig) {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets < 1 {
		sets = 1
	}
	n := sets * cfg.Ways
	*c = Cache{
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		tags:    slices.Grow(c.tags[:0], n)[:n],
		valid:   slices.Grow(c.valid[:0], n)[:n],
		lru:     slices.Grow(c.lru[:0], n)[:n],
	}
	clear(c.valid)
}

// Latency returns the hit latency of this level.
func (c *Cache) Latency() int64 { return c.latency }

// Sets returns the number of sets (exported for tests).
func (c *Cache) Sets() int { return c.sets }

// Lookup probes the cache for line (a line number, i.e. addr >> log2(line)).
// On a hit the entry's recency is updated.
func (c *Cache) Lookup(line uint64) bool {
	c.Accesses++
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.tick++
			c.lru[base+w] = c.tick
			return true
		}
	}
	c.Misses++
	return false
}

// Insert installs line, evicting the LRU way of its set if necessary.
// It returns the evicted line and whether an eviction occurred.
func (c *Cache) Insert(line uint64) (evicted uint64, hadVictim bool) {
	set := int(line % uint64(c.sets))
	base := set * c.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line { // already present
			c.tick++
			c.lru[i] = c.tick
			return 0, false
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.lru[i] < oldest {
			victim, oldest = i, c.lru[i]
		}
	}
	if c.valid[victim] {
		evicted, hadVictim = c.tags[victim], true
	}
	c.tick++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = c.tick
	return evicted, hadVictim
}

// Contains reports whether line is present without touching recency or
// statistics (test helper).
func (c *Cache) Contains(line uint64) bool {
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// MissRate returns Misses/Accesses, or 0 when the cache has not been used.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TLB is a fully associative translation buffer with LRU replacement.
type TLB struct {
	entries  int
	pageBits uint
	pages    map[uint64]uint64 // page -> last-use tick
	tick     uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB returns a TLB with the given number of entries and page size.
func NewTLB(entries int, pageBytes int) *TLB {
	t := &TLB{}
	t.Reset(entries, pageBytes)
	return t
}

// Reset restores t to NewTLB(entries, pageBytes)'s empty state, keeping the
// map's buckets.
func (t *TLB) Reset(entries int, pageBytes int) {
	bits := uint(0)
	for (1 << bits) < pageBytes {
		bits++
	}
	pages := t.pages
	if pages == nil {
		pages = make(map[uint64]uint64, entries+1)
	}
	clear(pages)
	*t = TLB{entries: entries, pageBits: bits, pages: pages}
}

// Lookup translates addr, returning false on a TLB miss. A miss installs the
// translation (the page walk itself is charged by the hierarchy).
func (t *TLB) Lookup(addr uint64) bool {
	t.Accesses++
	page := addr >> t.pageBits
	t.tick++
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.tick
		return true
	}
	t.Misses++
	if len(t.pages) >= t.entries {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		for p, use := range t.pages {
			if use < oldest {
				victim, oldest = p, use
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.tick
	return false
}

// MissRate returns Misses/Accesses, or 0 when unused.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
