package core

// Interval tracing: an opt-in, ring-buffered recorder the cycle kernel ticks
// into every `every` cycles. Each tick snapshots, per thread, the paper's
// interval-level signals — committed/fetched deltas, long-latency loads, L2
// misses, instantaneous ROB occupancy and outstanding-LLL count (the MLP
// signal), and whether the active fetch policy was gating the thread — so
// consumers can plot policy behavior over time instead of end-of-run
// aggregates.
//
// Disabled (the default) the recorder costs one nil check per cycle and zero
// allocations, preserving the steady-state zero-alloc invariant. Enabled, all
// storage is allocated up front in EnableIntervalTrace and samples are
// written into a fixed-capacity ring per thread (oldest samples are
// overwritten), so recording itself never allocates and output size is
// bounded no matter how long the run is. Every recorded value derives only
// from deterministic simulator state, so traces are byte-deterministic.

// IntervalSample is one per-thread observation at an interval boundary.
// Cycle is the boundary's cycle relative to the last ResetStats; counter
// fields are deltas over the interval; ROBOcc, MLP and Gated are
// instantaneous at the boundary. The JSON tags are the public wire shape
// (smtmlp.IntervalSample is an alias of this type).
type IntervalSample struct {
	Cycle     int64  `json:"cycle"`           // interval-end cycle, relative to the measurement origin
	Committed uint64 `json:"committed"`       // instructions committed in the interval
	Fetched   uint64 `json:"fetched"`         // fetch slots granted in the interval
	L2Misses  uint64 `json:"l2_misses"`       // demand loads serviced beyond the L2 in the interval
	LLLs      uint64 `json:"llls"`            // long-latency loads issued in the interval
	Flushes   uint64 `json:"flushes"`         // policy-triggered flushes in the interval
	ROBOcc    int    `json:"rob_occ"`         // ROB entries held at the boundary
	MLP       int    `json:"mlp"`             // long-latency loads outstanding at the boundary (the MLP signal)
	Gated     bool   `json:"gated,omitempty"` // fetch policy was gating the thread at the boundary
}

// traceRingCap bounds retained samples per thread. With the ring full, new
// boundaries evict the oldest sample, keeping wire payloads bounded for any
// run length or interval choice.
const traceRingCap = 512

// traceThread is one thread's ring plus the counter baselines the next
// sample's deltas are taken against.
type traceThread struct {
	ring []IntervalSample // fixed capacity traceRingCap
	head int              // index of the oldest sample
	n    int              // live samples

	committed uint64
	fetched   uint64
	flushes   uint64
	llls      uint64
	l2Misses  uint64
}

// intervalTrace is the whole recorder; Core holds a nil pointer when tracing
// is disabled.
type intervalTrace struct {
	every  int64
	origin int64 // cycle of the last restart; boundaries are origin + k*every
	nextAt int64
	perThr []traceThread
}

func (tt *traceThread) push(s IntervalSample) {
	if tt.n < len(tt.ring) {
		tt.ring[(tt.head+tt.n)%len(tt.ring)] = s
		tt.n++
		return
	}
	tt.ring[tt.head] = s
	tt.head = (tt.head + 1) % len(tt.ring)
}

// EnableIntervalTrace turns on interval tracing with a sample every `every`
// cycles (values < 1 disable tracing). Boundaries restart at each ResetStats,
// so a warm-up phase leaves no samples behind and measured-phase boundaries
// land on round multiples of `every`.
func (c *Core) EnableIntervalTrace(every int64) {
	if every < 1 {
		c.trace = nil
		return
	}
	tr := &intervalTrace{every: every, perThr: make([]traceThread, len(c.threads))}
	for i := range tr.perThr {
		tr.perThr[i].ring = make([]IntervalSample, traceRingCap)
	}
	tr.restart(c)
	c.trace = tr
}

// restart clears recorded samples and re-bases boundaries and delta baselines
// at the core's current state (the ResetStats hook).
func (tr *intervalTrace) restart(c *Core) {
	tr.origin = c.now
	tr.nextAt = c.now + tr.every
	for i, t := range c.threads {
		tt := &tr.perThr[i]
		tt.head, tt.n = 0, 0
		tt.committed = t.committed
		tt.fetched = t.fetched
		tt.flushes = t.flushes
		tt.llls = c.hier.ThreadLLLs(t.id)
		tt.l2Misses = c.hier.ThreadL2Misses(t.id)
	}
}

// record emits one sample per thread for the boundary crossed at c.now.
// Idle-skipped stretches crossing one or more boundaries produce a single
// sample stamped with the cycle the core actually reached — boundaries with
// no activity in between carry no extra information.
func (c *Core) record(tr *intervalTrace) {
	rel := c.now - c.statsStart
	for i, t := range c.threads {
		tt := &tr.perThr[i]
		llls := c.hier.ThreadLLLs(t.id)
		l2 := c.hier.ThreadL2Misses(t.id)
		tt.push(IntervalSample{
			Cycle:     rel,
			Committed: t.committed - tt.committed,
			Fetched:   t.fetched - tt.fetched,
			L2Misses:  l2 - tt.l2Misses,
			LLLs:      llls - tt.llls,
			Flushes:   t.flushes - tt.flushes,
			ROBOcc:    t.robCount,
			MLP:       c.hier.OutstandingLLL(t.id, c.now),
			Gated:     !c.policy.CanFetch(t.id),
		})
		tt.committed = t.committed
		tt.fetched = t.fetched
		tt.flushes = t.flushes
		tt.llls = llls
		tt.l2Misses = l2
	}
	tr.nextAt = tr.origin + ((c.now-tr.origin)/tr.every+1)*tr.every
}

// snapshot unrolls the rings oldest-first into per-thread sample slices.
func (tr *intervalTrace) snapshot() [][]IntervalSample {
	out := make([][]IntervalSample, len(tr.perThr))
	for i := range tr.perThr {
		tt := &tr.perThr[i]
		s := make([]IntervalSample, tt.n)
		for j := 0; j < tt.n; j++ {
			s[j] = tt.ring[(tt.head+j)%len(tt.ring)]
		}
		out[i] = s
	}
	return out
}
