package mem

import (
	"slices"

	"smtmlp/internal/prefetch"
)

// Config describes the whole data-side memory hierarchy. JSON tags pin the
// wire names used by the HTTP configuration surface.
type Config struct {
	LineBytes  int         `json:"line_bytes"`
	L1         CacheConfig `json:"l1"`
	L2         CacheConfig `json:"l2"`
	L3         CacheConfig `json:"l3"`
	MemLatency int64       `json:"mem_latency"` // main memory access latency (the paper sweeps 200..800)

	TLBEntries int `json:"tlb_entries"`
	PageBytes  int `json:"page_bytes"`

	EnablePrefetch bool            `json:"enable_prefetch"`
	Prefetch       prefetch.Config `json:"prefetch"`
	// StreamBufferHitLatency is the load-to-use latency when a demand load
	// finds its line already arrived in a stream buffer.
	StreamBufferHitLatency int64 `json:"stream_buffer_hit_latency"`

	// SerializeLLL, when true, forces long-latency loads of the same thread
	// to be serviced one at a time (used for the Table I MLP-impact study).
	SerializeLLL bool `json:"serialize_lll,omitempty"`

	// Threads is the number of hardware contexts sharing the hierarchy
	// (used to size per-thread accounting).
	Threads int `json:"threads"`
}

// DefaultConfig returns the Table IV memory hierarchy with prefetching
// enabled.
func DefaultConfig(threads int) Config {
	const line = 64
	return Config{
		LineBytes:              line,
		L1:                     CacheConfig{SizeBytes: 64 << 10, Ways: 2, LineBytes: line, Latency: 2},
		L2:                     CacheConfig{SizeBytes: 512 << 10, Ways: 8, LineBytes: line, Latency: 11},
		L3:                     CacheConfig{SizeBytes: 4 << 20, Ways: 16, LineBytes: line, Latency: 35},
		MemLatency:             350,
		TLBEntries:             512,
		PageBytes:              8 << 10,
		EnablePrefetch:         true,
		Prefetch:               prefetch.DefaultConfig(),
		StreamBufferHitLatency: 4,
		Threads:                threads,
	}
}

// Level identifies where an access was satisfied.
type Level uint8

// Hierarchy levels, from closest to the core outwards.
const (
	LevelL1 Level = iota
	LevelSB       // stream buffer (prefetched)
	LevelL2
	LevelL3
	LevelMem
)

// String returns the level's conventional name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelSB:
		return "SB"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "MEM"
	default:
		return "?"
	}
}

// Access is the outcome of a load or store.
type Access struct {
	Latency     int64 // cycles from issue to data availability
	Level       Level // level that supplied the data
	TLBMiss     bool
	LongLatency bool // L3 miss or D-TLB miss: the paper's long-latency load
}

// mlpTracker accumulates the Chou et al. MLP statistic for one thread:
// the average number of long-latency loads outstanding over the cycles in
// which at least one is outstanding.
type mlpTracker struct {
	// ends[head:] holds the sorted completion cycles of outstanding LLLs;
	// expiry advances head instead of reslicing, so the backing array is
	// reused for the whole run (compacted when the dead prefix grows).
	ends     []int64
	head     int
	lastT    int64
	weighted float64 // integral of outstanding count over busy cycles
	busy     int64   // cycles with >= 1 outstanding
	total    uint64  // number of long-latency loads observed
}

// outstanding returns the number of loads still in flight.
func (t *mlpTracker) outstanding() int { return len(t.ends) - t.head }

// advance moves accounting time forward to now, expiring completed loads.
func (t *mlpTracker) advance(now int64) {
	for t.head < len(t.ends) && t.ends[t.head] <= now {
		end := t.ends[t.head]
		if end > t.lastT {
			dt := end - t.lastT
			t.weighted += float64(len(t.ends)-t.head) * float64(dt)
			t.busy += dt
			t.lastT = end
		}
		t.head++
	}
	if t.head == len(t.ends) {
		t.ends = t.ends[:0]
		t.head = 0
	} else if t.head >= 64 {
		n := copy(t.ends, t.ends[t.head:])
		t.ends = t.ends[:n]
		t.head = 0
	}
	if now > t.lastT {
		if len(t.ends) > t.head {
			dt := now - t.lastT
			t.weighted += float64(len(t.ends)-t.head) * float64(dt)
			t.busy += dt
		}
		t.lastT = now
	}
}

func (t *mlpTracker) add(now, end int64) {
	t.advance(now)
	t.total++
	// Sorted insert (binary search, no closure) into the live suffix.
	lo, hi := t.head, len(t.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.ends[mid] >= end {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t.ends = append(t.ends, 0)
	copy(t.ends[lo+1:], t.ends[lo:])
	t.ends[lo] = end
}

// value returns the MLP statistic; 1.0 when no long-latency load has
// completed (the convention Table I uses for benchmarks without misses).
func (t *mlpTracker) value() float64 {
	if t.busy == 0 {
		return 1
	}
	return t.weighted / float64(t.busy)
}

// Hierarchy is the shared memory system. It is not safe for concurrent use;
// the simulator is single-goroutine per core instance.
type Hierarchy struct {
	cfg        Config
	lineShift  uint
	l1, l2, l3 Cache
	tlb        TLB
	stride     *prefetch.StridePredictor // nil when prefetching is disabled
	sbuf       *prefetch.Buffers         // nil when prefetching is disabled

	// outstanding maps a missing line to the cycle its fill completes, so a
	// second access to an in-flight line merges with the first (MSHR
	// coalescing) instead of starting a new memory access. Open-addressed
	// and compacted in place: no per-access map traffic, no unbounded growth.
	outstanding mshrTable

	// fillFn is the one reusable fill callback handed to the stream buffers;
	// fillNow carries the current cycle so probing allocates no closure.
	fillFn  prefetch.FillFunc
	fillNow int64

	// Per-thread accounting.
	mlp       []mlpTracker
	l1miss    []mlpTracker // outstanding below-L1 accesses (DCRA's slow/fast signal)
	serialEnd []int64      // end of the last serialized LLL, per thread
	llThreads []uint64
	l2Misses  []uint64 // demand loads serviced beyond the L2, per thread

	// Statistics.
	Loads        uint64
	Stores       uint64
	SBHits       uint64
	TLBMisses    uint64
	LongLatLoads uint64
}

// New returns an empty hierarchy for cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(cfg)
	return h
}

// Reset restores h to New(cfg)'s state — every cache, the TLB, the MSHRs,
// the prefetcher and the per-thread accounting empty, statistics zero —
// reusing the storage h already holds.
func (h *Hierarchy) Reset(cfg Config) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	shift := uint(0)
	for (1 << shift) < cfg.LineBytes {
		shift++
	}
	n := cfg.Threads
	old := *h
	*h = Hierarchy{
		cfg:         cfg,
		lineShift:   shift,
		l1:          old.l1,
		l2:          old.l2,
		l3:          old.l3,
		tlb:         old.tlb,
		outstanding: old.outstanding,
		fillFn:      old.fillFn,
		mlp:         resetTrackers(old.mlp, n),
		l1miss:      resetTrackers(old.l1miss, n),
		serialEnd:   slices.Grow(old.serialEnd[:0], n)[:n],
		llThreads:   slices.Grow(old.llThreads[:0], n)[:n],
		l2Misses:    slices.Grow(old.l2Misses[:0], n)[:n],
	}
	clear(h.serialEnd)
	clear(h.llThreads)
	clear(h.l2Misses)
	h.l1.Reset(cfg.L1)
	h.l2.Reset(cfg.L2)
	h.l3.Reset(cfg.L3)
	h.tlb.Reset(cfg.TLBEntries, cfg.PageBytes)
	h.outstanding.reset()
	if cfg.EnablePrefetch {
		h.stride, h.sbuf = old.stride, old.sbuf
		if h.stride == nil {
			h.stride, h.sbuf = &prefetch.StridePredictor{}, &prefetch.Buffers{}
		}
		h.stride.Reset(cfg.Prefetch)
		h.sbuf.Reset(cfg.Prefetch)
	}
	if h.fillFn == nil {
		h.fillFn = func(l uint64) int64 {
			lat, _ := h.fillBelowL1(l, h.fillNow)
			return lat
		}
	}
}

// resetTrackers returns ts resized to n empty trackers, each keeping its
// backing array.
func resetTrackers(ts []mlpTracker, n int) []mlpTracker {
	ts = slices.Grow(ts[:0], n)[:n]
	for i := range ts {
		ts[i] = mlpTracker{ends: ts[i].ends[:0]}
	}
	return ts
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Caches returns the three cache levels (test helper).
func (h *Hierarchy) Caches() (l1, l2, l3 *Cache) { return &h.l1, &h.l2, &h.l3 }

// TLBMissRate returns the D-TLB miss rate so far.
func (h *Hierarchy) TLBMissRate() float64 { return h.tlb.MissRate() }

// line returns the cache line number of addr.
func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift }

// fillBelowL1 returns the latency of obtaining line from L2/L3/memory,
// installing it in the outer levels, and registering the in-flight miss for
// coalescing. It does not install into L1 (the caller decides, so prefetched
// lines stay in the stream buffer until demanded).
func (h *Hierarchy) fillBelowL1(lineNum uint64, now int64) (lat int64, level Level) {
	if ready, ok := h.outstanding.get(lineNum); ok && ready > now {
		// Merge with the in-flight miss.
		return ready - now, LevelMem
	}
	switch {
	case h.l2.Lookup(lineNum):
		return h.cfg.L2.Latency, LevelL2
	case h.l3.Lookup(lineNum):
		h.l2.Insert(lineNum)
		return h.cfg.L3.Latency, LevelL3
	default:
		h.l3.Insert(lineNum)
		h.l2.Insert(lineNum)
		h.outstanding.set(lineNum, now+h.cfg.MemLatency, now)
		return h.cfg.MemLatency, LevelMem
	}
}

// Load performs a demand load by thread tid at address addr issued at cycle
// now, returning its timing and classification. Long-latency loads (L3
// misses and D-TLB misses) feed the per-thread MLP trackers.
func (h *Hierarchy) Load(tid int, pc, addr uint64, now int64) Access {
	h.Loads++
	lineNum := h.line(addr)

	var acc Access

	// Address translation. A D-TLB miss costs a memory access (page walk)
	// and by the paper's definition makes the load long-latency.
	if !h.tlb.Lookup(addr) {
		h.TLBMisses++
		acc.TLBMiss = true
		acc.LongLatency = true
		acc.Latency += h.cfg.MemLatency
	}

	// Stride training happens on every executed load.
	var stride int64
	var confident bool
	if h.stride != nil {
		stride, confident = h.stride.Observe(pc, addr)
	}

	switch {
	case h.inFlight(lineNum, now):
		// The line is still being filled from memory (MSHR merge): the
		// load waits for the outstanding fill, regardless of the tags
		// already installed for it.
		ready, _ := h.outstanding.get(lineNum)
		wait := ready - now
		acc.Latency += wait + h.cfg.L1.Latency
		acc.Level = LevelMem
		if wait > h.cfg.L3.Latency {
			acc.LongLatency = true
		}
	case h.l1.Lookup(lineNum):
		acc.Latency += h.cfg.L1.Latency
		acc.Level = LevelL1
	default:
		// Probe stream buffers in parallel with the L1 miss.
		if h.sbuf != nil {
			h.fillNow = now
			if ready, hit := h.sbuf.Probe(lineNum, now, h.fillFn); hit {
				h.SBHits++
				wait := ready - now
				if wait < 0 {
					wait = 0
				}
				lat := h.cfg.StreamBufferHitLatency + wait
				acc.Latency += lat
				acc.Level = LevelSB
				h.l1.Insert(lineNum)
				// A prefetch that has not covered most of the memory latency
				// still leaves the load long-latency in the paper's sense.
				if wait > h.cfg.L3.Latency {
					acc.LongLatency = true
				}
				break
			}
		}
		lat, level := h.fillBelowL1(lineNum, now)
		acc.Latency += lat
		acc.Level = level
		h.l1.Insert(lineNum)
		if level == LevelMem {
			acc.LongLatency = true
		}
		// Confident strides allocate a stream buffer on an L1 miss that also
		// missed the buffers.
		if h.sbuf != nil && confident {
			ls := stride / int64(h.cfg.LineBytes)
			if ls == 0 {
				if stride > 0 {
					ls = 1
				} else {
					ls = -1
				}
			}
			h.fillNow = now
			h.sbuf.Allocate(lineNum, ls, now, h.fillFn)
		}
	}

	if acc.Level != LevelL1 {
		h.l1miss[tid].add(now, now+acc.Latency)
	}
	if acc.Level == LevelL3 || acc.Level == LevelMem {
		h.l2Misses[tid]++
	}
	if acc.LongLatency {
		h.LongLatLoads++
		h.llThreads[tid]++
		start := now
		if h.cfg.SerializeLLL {
			// Force this long-latency load to begin service only after the
			// previous one from the same thread has completed. The MLP
			// tracker sees the service interval, not the queueing delay, so
			// serialized runs measure an MLP of ~1 by construction.
			if h.serialEnd[tid] > now {
				extra := h.serialEnd[tid] - now
				acc.Latency += extra
				start = h.serialEnd[tid]
			}
			h.serialEnd[tid] = now + acc.Latency
		}
		h.mlp[tid].add(start, now+acc.Latency)
	}
	return acc
}

// Store performs a store by thread tid. Stores allocate like loads but are
// never long-latency loads (the paper's policies key on loads only); the
// returned latency bounds write-buffer occupancy.
func (h *Hierarchy) Store(tid int, addr uint64, now int64) Access {
	h.Stores++
	lineNum := h.line(addr)
	var acc Access
	if !h.tlb.Lookup(addr) {
		h.TLBMisses++
		acc.TLBMiss = true
		acc.Latency += h.cfg.MemLatency
	}
	if h.inFlight(lineNum, now) {
		ready, _ := h.outstanding.get(lineNum)
		acc.Latency += ready - now + h.cfg.L1.Latency
		acc.Level = LevelMem
		return acc
	}
	if h.l1.Lookup(lineNum) {
		acc.Latency += h.cfg.L1.Latency
		acc.Level = LevelL1
		return acc
	}
	lat, level := h.fillBelowL1(lineNum, now)
	h.l1.Insert(lineNum)
	acc.Latency += lat
	acc.Level = level
	return acc
}

// inFlight reports whether line has an outstanding memory fill at now.
func (h *Hierarchy) inFlight(line uint64, now int64) bool {
	ready, ok := h.outstanding.get(line)
	return ok && ready > now
}

// OutstandingLLL reports how many long-latency loads of thread tid are
// outstanding at cycle now.
func (h *Hierarchy) OutstandingLLL(tid int, now int64) int {
	h.mlp[tid].advance(now)
	return h.mlp[tid].outstanding()
}

// OutstandingL1Miss reports how many loads of thread tid that missed the L1
// are outstanding at cycle now — DCRA's signal for classifying a thread as
// memory-intensive ("slow").
func (h *Hierarchy) OutstandingL1Miss(tid int, now int64) int {
	h.l1miss[tid].advance(now)
	return h.l1miss[tid].outstanding()
}

// ThreadLLLs returns thread tid's long-latency load count so far (a pure
// counter read; no accounting is advanced).
func (h *Hierarchy) ThreadLLLs(tid int) uint64 { return h.llThreads[tid] }

// ThreadL2Misses returns how many of thread tid's demand loads were serviced
// beyond the L2 (L3 hits, memory fills and MSHR merges with in-flight fills).
func (h *Hierarchy) ThreadL2Misses(tid int) uint64 { return h.l2Misses[tid] }

// ThreadMLP finalizes accounting at endCycle and returns thread tid's MLP
// (Chou et al. definition) together with its long-latency load count.
func (h *Hierarchy) ThreadMLP(tid int, endCycle int64) (mlp float64, llls uint64) {
	h.mlp[tid].advance(endCycle)
	return h.mlp[tid].value(), h.llThreads[tid]
}

// ResetStats zeroes all measurement counters and MLP accounting while
// keeping cache, TLB, predictor and stream-buffer contents — the warm-up
// reset used before a measured simulation phase.
func (h *Hierarchy) ResetStats(now int64) {
	h.Loads, h.Stores, h.SBHits, h.TLBMisses, h.LongLatLoads = 0, 0, 0, 0, 0
	h.l1.Accesses, h.l1.Misses = 0, 0
	h.l2.Accesses, h.l2.Misses = 0, 0
	h.l3.Accesses, h.l3.Misses = 0, 0
	h.tlb.Accesses, h.tlb.Misses = 0, 0
	for i := range h.mlp {
		h.mlp[i].advance(now)
		h.mlp[i].weighted, h.mlp[i].busy, h.mlp[i].total = 0, 0, 0
		h.l1miss[i].advance(now)
		h.llThreads[i] = 0
		h.l2Misses[i] = 0
	}
	if h.sbuf != nil {
		h.sbuf.Allocations, h.sbuf.Prefetches, h.sbuf.Hits = 0, 0, 0
	}
}

// PrefetchStats returns stream-buffer statistics (zeros when prefetching is
// disabled).
func (h *Hierarchy) PrefetchStats() (allocations, prefetches, hits uint64) {
	if h.sbuf == nil {
		return 0, 0, 0
	}
	return h.sbuf.Allocations, h.sbuf.Prefetches, h.sbuf.Hits
}
