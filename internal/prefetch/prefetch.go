// Package prefetch implements the baseline hardware prefetcher of Table IV:
// eight stream buffers of eight entries each, allocated under the guidance of
// a 2K-entry stride predictor indexed by load PC, following the
// predictor-directed stream buffer scheme of Sherwood, Sair and Calder
// (MICRO 2000) with the confidence-based allocation the paper cites.
//
// The package is deliberately independent of the cache model: stream buffers
// operate on cache-line numbers, and the caller supplies a fill function that
// reports how long a prefetch to a given line takes. internal/mem wires the
// prefetcher between the L1 data cache and the rest of the hierarchy.
package prefetch

import "slices"

// Config sizes the prefetcher. DefaultConfig matches the paper's baseline.
type Config struct {
	Buffers       int `json:"buffers"`        // number of stream buffers
	Entries       int `json:"entries"`        // entries (prefetched lines) per buffer
	StrideEntries int `json:"stride_entries"` // stride predictor table entries (power of two)
	MinConfidence int `json:"min_confidence"` // 2-bit confidence threshold for allocating a buffer
}

// DefaultConfig returns the Table IV prefetcher: 8 stream buffers, 8 entries
// each, guided by a 2K-entry stride predictor.
func DefaultConfig() Config {
	return Config{Buffers: 8, Entries: 8, StrideEntries: 2048, MinConfidence: 2}
}

type strideEntry struct {
	valid    bool
	lastAddr uint64
	stride   int64
	conf     int8
}

// StridePredictor is a PC-indexed last-stride predictor with a 2-bit
// confidence counter per entry. It observes every executed load and reports
// whether the load has a stable non-zero stride.
type StridePredictor struct {
	cfg     Config
	entries []strideEntry
}

// NewStridePredictor returns a predictor with cfg.StrideEntries entries.
func NewStridePredictor(cfg Config) *StridePredictor {
	p := &StridePredictor{}
	p.Reset(cfg)
	return p
}

// Reset restores p to NewStridePredictor(cfg)'s untrained state, reusing its
// table when it is large enough.
func (p *StridePredictor) Reset(cfg Config) {
	n := cfg.StrideEntries
	if n <= 0 {
		n = DefaultConfig().StrideEntries
	}
	*p = StridePredictor{cfg: cfg, entries: slices.Grow(p.entries[:0], n)[:n]}
	clear(p.entries)
}

// Observe records the load at pc touching addr and returns the predicted
// stride and whether the prediction is confident enough to direct a stream
// buffer allocation.
func (p *StridePredictor) Observe(pc, addr uint64) (stride int64, confident bool) {
	e := &p.entries[pc%uint64(len(p.entries))]
	if !e.valid {
		*e = strideEntry{valid: true, lastAddr: addr}
		return 0, false
	}
	s := int64(addr) - int64(e.lastAddr)
	if s == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = s
		}
	}
	e.lastAddr = addr
	min := int8(p.cfg.MinConfidence)
	if min <= 0 {
		min = 2
	}
	return e.stride, e.conf >= min && e.stride != 0
}

type bufferEntry struct {
	line  uint64
	ready int64 // cycle the prefetched line arrives
}

type streamBuffer struct {
	valid      bool
	lineStride int64
	entries    []bufferEntry
	lastUse    uint64
}

// Buffers is a set of stream buffers holding prefetched cache lines.
// Probe is checked in parallel with the L1 data cache; a hit supplies the
// line (once its prefetch has arrived) and advances the stream.
type Buffers struct {
	cfg  Config
	bufs []streamBuffer
	tick uint64

	// Statistics.
	Allocations uint64
	Hits        uint64
	Prefetches  uint64
}

// NewBuffers returns an empty stream buffer set sized by cfg.
func NewBuffers(cfg Config) *Buffers {
	b := &Buffers{}
	b.Reset(cfg)
	return b
}

// Reset restores b to NewBuffers(cfg)'s state: every buffer invalid and
// empty, statistics zero. It reuses the buffers' storage.
func (b *Buffers) Reset(cfg Config) {
	if cfg.Buffers <= 0 || cfg.Entries <= 0 {
		cfg = DefaultConfig()
	}
	bufs := slices.Grow(b.bufs[:0], cfg.Buffers)[:cfg.Buffers]
	for i := range bufs {
		bufs[i] = streamBuffer{entries: slices.Grow(bufs[i].entries[:0], cfg.Entries)}
	}
	*b = Buffers{cfg: cfg, bufs: bufs}
}

// FillFunc reports the latency (in cycles) of fetching a line from below the
// L1 data cache, as seen at the time the prefetch is issued.
type FillFunc func(line uint64) int64

// Probe looks line up in every buffer. On a hit it returns the cycle at
// which the data is available (which may be in the future if the prefetch is
// still in flight), consumes the stream up to and including the hit entry,
// and tops the buffer back up with further prefetches issued at time now.
func (b *Buffers) Probe(line uint64, now int64, fill FillFunc) (ready int64, hit bool) {
	for i := range b.bufs {
		sb := &b.bufs[i]
		if !sb.valid {
			continue
		}
		for j := range sb.entries {
			if sb.entries[j].line == line {
				b.Hits++
				b.tick++
				sb.lastUse = b.tick
				ready = sb.entries[j].ready
				// Consume entries up to and including j, then extend the
				// stream so the buffer keeps cfg.Entries lines ahead.
				last := sb.entries[len(sb.entries)-1].line
				sb.entries = append(sb.entries[:0], sb.entries[j+1:]...)
				for len(sb.entries) < b.cfg.Entries {
					next := uint64(int64(last) + sb.lineStride)
					last = next
					b.Prefetches++
					sb.entries = append(sb.entries, bufferEntry{line: next, ready: now + fill(next)})
				}
				return ready, true
			}
		}
	}
	return 0, false
}

// Allocate claims the least recently used buffer for a new stream starting
// one stride beyond line, prefetching cfg.Entries lines. lineStride must be
// non-zero; it is the per-access stride expressed in whole cache lines
// (callers round sub-line strides to ±1 line).
func (b *Buffers) Allocate(line uint64, lineStride int64, now int64, fill FillFunc) {
	if lineStride == 0 {
		return
	}
	// Avoid duplicate streams: if some buffer already covers the next line,
	// leave it alone.
	next := uint64(int64(line) + lineStride)
	for i := range b.bufs {
		sb := &b.bufs[i]
		if !sb.valid {
			continue
		}
		for j := range sb.entries {
			if sb.entries[j].line == next {
				return
			}
		}
	}
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range b.bufs {
		if !b.bufs[i].valid {
			victim, oldest = i, 0
			break
		}
		if b.bufs[i].lastUse < oldest {
			victim, oldest = i, b.bufs[i].lastUse
		}
	}
	_ = oldest
	b.tick++
	b.Allocations++
	sb := &b.bufs[victim]
	sb.valid = true
	sb.lineStride = lineStride
	sb.lastUse = b.tick
	sb.entries = sb.entries[:0]
	cur := int64(line)
	for len(sb.entries) < b.cfg.Entries {
		cur += lineStride
		b.Prefetches++
		sb.entries = append(sb.entries, bufferEntry{line: uint64(cur), ready: now + fill(uint64(cur))})
	}
}
