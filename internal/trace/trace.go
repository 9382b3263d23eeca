// Package trace synthesizes deterministic dynamic instruction streams that
// stand in for the paper's SPEC CPU2000 Alpha SimPoint traces.
//
// Real traces are unavailable (proprietary binaries, Alpha toolchain), so the
// generator produces the properties the paper's mechanisms actually consume:
//
//   - recurring static loads (PC-indexed predictors learn per-site behaviour),
//   - per-site hit/miss periodicity (the miss-pattern predictor's signal),
//   - clusters of independent long-latency loads at controllable distances in
//     the dynamic stream (the MLP structure the LLSR measures),
//   - register dependences that bound ILP and serialize pointer chases,
//   - branch outcome streams with controllable predictability,
//   - streaming vs irregular address patterns (what the stream-buffer
//     prefetcher can and cannot cover).
//
// A benchmark model is a loop over a fixed set of instruction "sites". A site
// always has the same class, memory pattern and register role, so its PC
// exhibits stable, learnable behaviour — the property the paper's predictors
// exploit on real SPEC binaries. internal/bench instantiates one calibrated
// model per SPEC CPU2000 benchmark.
package trace

import (
	"fmt"
	"slices"

	"smtmlp/internal/isa"
	"smtmlp/internal/rng"
)

// PatternKind selects the address behaviour of a memory site.
type PatternKind uint8

// Address patterns for load/store sites.
const (
	PatternHot    PatternKind = iota // small L1-resident region
	PatternWarm                      // L2/L3-resident region (stream through it)
	PatternStream                    // sequential walk through the cold region
	PatternRandom                    // uniform random lines in the cold region
	PatternChain                     // pointer chase: dependent random accesses
)

// String names the pattern.
func (p PatternKind) String() string {
	switch p {
	case PatternHot:
		return "hot"
	case PatternWarm:
		return "warm"
	case PatternStream:
		return "stream"
	case PatternRandom:
		return "random"
	case PatternChain:
		return "chain"
	default:
		return "?"
	}
}

// BranchKind selects the outcome behaviour of a branch site.
type BranchKind uint8

// Branch behaviours.
const (
	BranchBiased BranchKind = iota // taken with probability 0.95
	BranchLoop                     // taken n-1 times, then not taken once
	BranchRandom                   // taken with probability 0.5
)

// Model parameterizes one synthetic benchmark. internal/bench builds the 26
// SPEC CPU2000 calibrations; tests build ad-hoc models.
type Model struct {
	Name string
	Seed uint64

	// Sites is the loop body length (number of static instruction sites).
	Sites int

	// Instruction mix (fractions of sites; the remainder becomes integer
	// ALU operations). FPFrac splits the ALU remainder between int and FP.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64

	// Memory behaviour of load sites.
	HotBytes  uint64 // default 32KB, L1-resident
	WarmBytes uint64 // default 1.5MB, L2-missing but L3-resident
	ColdBytes uint64 // default 256MB, far beyond the L3

	// StreamSites load sites walk the cold region sequentially with
	// StreamStride bytes per access (line crossings become misses that a
	// stream buffer can prefetch). All streams advance in lockstep, so their
	// line-crossing misses cluster — streaming MLP.
	StreamSites  int
	StreamStride uint64

	// Bursts groups of BurstLen adjacent-in-loop load sites touch random
	// cold lines every BurstPeriod-th loop iteration (otherwise they behave
	// like hot sites). Burst members are placed BurstSpacing sites apart, so
	// the MLP distance of a burst is about BurstLen*BurstSpacing
	// instructions.
	Bursts       int
	BurstLen     int
	BurstSpacing int
	BurstPeriod  int

	// ChainSites load sites perform pointer chases: each access depends on
	// the previous access of the same chain through a dedicated register, so
	// their long latencies serialize (no MLP). ChainPeriod-th executions
	// touch the cold region; others stay hot.
	ChainSites  int
	ChainPeriod int

	// WarmSites load sites stream through the warm region (L2 misses that
	// hit in the L3 — prefetchable but never long-latency).
	WarmSites int

	// MissJitter is the probability that a non-cold execution of a burst or
	// chain site goes cold anyway, making its miss pattern irregular and the
	// miss-pattern predictor less accurate (mcf's signature).
	MissJitter float64

	// DepDist is the register dependence distance of filler ALU sites (in
	// dynamic instructions); smaller means longer dependence chains and less
	// ILP.
	DepDist int

	// FarUseFrac is the probability that a filler instruction consumes the
	// most recent far (cold/warm/stream) load's result. Consumers of missed
	// loads pile up unissued in the shared issue queues while the miss is
	// outstanding — the resource-clogging behaviour of memory-bound code
	// that long-latency-aware fetch policies exist to contain.
	FarUseFrac float64

	// Branch behaviour mix.
	BranchRandomFrac float64 // fraction of branch sites with random outcomes
	LoopPeriod       int     // iteration count of BranchLoop sites
}

// withDefaults fills zero fields with workable defaults.
func (m Model) withDefaults() Model {
	if m.Sites <= 0 {
		m.Sites = 128
	}
	if m.HotBytes == 0 {
		m.HotBytes = 32 << 10
	}
	if m.WarmBytes == 0 {
		m.WarmBytes = 1536 << 10
	}
	if m.ColdBytes == 0 {
		m.ColdBytes = 256 << 20
	}
	if m.StreamStride == 0 {
		m.StreamStride = 8
	}
	if m.BurstPeriod <= 0 {
		m.BurstPeriod = 1
	}
	if m.ChainPeriod <= 0 {
		m.ChainPeriod = 1
	}
	if m.BurstSpacing <= 0 {
		m.BurstSpacing = 1
	}
	if m.DepDist <= 0 {
		m.DepDist = 4
	}
	if m.LoopPeriod <= 0 {
		m.LoopPeriod = 8
	}
	return m
}

type siteRole uint8

const (
	roleFiller siteRole = iota
	roleLoad
	roleStore
	roleBranch
)

type site struct {
	role    siteRole
	class   isa.Class
	pattern PatternKind
	pc      uint64

	// Memory sites.
	streamID int // stream index for PatternStream/PatternWarm
	chainID  int // chain index for PatternChain
	burstID  int // burst group for periodic cold sites (-1 otherwise)
	period   int // cold period for burst/chain sites

	// Branch sites.
	branch BranchKind
	target uint64
}

// Generator produces the dynamic instruction stream of one thread running
// one model. Generators are deterministic: two generators built from the
// same model produce identical streams. Not safe for concurrent use.
type Generator struct {
	model Model
	sites []site
	used  []bool // build's placement marks, kept for reuse
	rnd   rng.Source

	iter uint64 // completed passes over the site loop
	pos  int    // next site index
	seq  uint64 // next dynamic sequence number

	streamPos []uint64 // per-stream byte offset in its region
	loopCount []int    // per-branch-site loop counters

	destRing [64]int16 // recent destination registers, for dependence wiring
	destPos  int
	farPos   int   // rotation for far-load destination registers
	lastFar  int16 // most recent far-load destination, or RegNone

	addrBase uint64 // per-thread address space base
}

// regions of the synthetic address space, relative to addrBase.
const (
	hotBase  = uint64(0)
	warmBase = uint64(1) << 24
	coldBase = uint64(1) << 28
	codeBase = uint64(1) << 40
)

// Dedicated architectural registers: filler results rotate through r0..r19,
// far (cold/warm/stream) loads write r20..r23, and pointer chains own
// r24..r31. Far-load destinations stay out of the filler dependence ring so
// that clustered independent misses are not serialized by incidental
// consumers — the property that lets a ROB-blocked thread expose MLP, which
// hot loads (whose values feed ordinary computation) deliberately lack.
const (
	numFarRegs    = 4
	farRegFirst   = int16(20) // r20..r23
	numChainRegs  = 8
	chainRegFirst = int16(24) // r24..r31
)

// NewGenerator builds the site table for model and returns a generator whose
// addresses live in a thread-private region selected by threadID (caches are
// shared; address spaces are disjoint, as for the paper's multiprogrammed
// workloads).
func NewGenerator(model Model, threadID int) *Generator {
	g := &Generator{}
	g.Reset(model, threadID)
	return g
}

// Reset rebuilds g in place as NewGenerator(model, threadID) would build it,
// reusing its tables: the stream restarts at sequence 0.
func (g *Generator) Reset(model Model, threadID int) {
	m := model.withDefaults()
	*g = Generator{
		model:     m,
		sites:     g.sites,
		used:      g.used,
		streamPos: g.streamPos,
		loopCount: g.loopCount,
		addrBase:  uint64(threadID) << 44,
	}
	g.rnd.Seed(m.Seed*0x9E3779B97F4A7C15 + uint64(threadID)*0xBF58476D1CE4E5B9 + 1)
	g.build()
}

// Model returns the generator's (default-filled) model.
func (g *Generator) Model() Model { return g.model }

// Sites returns the number of static sites (distinct PCs) in the loop body.
func (g *Generator) Sites() int { return len(g.sites) }

// build lays out the site loop: special memory sites first (bursts spaced
// through the body, streams, chains, warm walkers), then stores, branches
// and filler to match the instruction mix.
func (g *Generator) build() {
	m := g.model
	n := m.Sites
	g.sites = slices.Grow(g.sites[:0], n)[:n]
	for i := range g.sites {
		g.sites[i] = site{role: roleFiller, class: isa.IntALU, burstID: -1}
	}
	g.used = slices.Grow(g.used[:0], n)[:n]
	clear(g.used)
	used := g.used

	place := func(idx int, s site) {
		s.pc = codeBase + uint64(idx)*4
		if s.role == roleBranch {
			s.target = s.pc + 64
		}
		g.sites[idx] = s
		used[idx] = true
	}
	// nextFree finds the first unused slot at or after idx, wrapping.
	nextFree := func(idx int) int {
		for k := 0; k < n; k++ {
			i := (idx + k) % n
			if !used[i] {
				return i
			}
		}
		return -1
	}

	// Burst groups: members spaced BurstSpacing apart, groups spread evenly.
	streams := 0
	for b := 0; b < m.Bursts; b++ {
		start := b * (n / max(m.Bursts, 1))
		for k := 0; k < m.BurstLen; k++ {
			idx := nextFree((start + k*m.BurstSpacing) % n)
			if idx < 0 {
				break
			}
			place(idx, site{
				role: roleLoad, class: isa.Load, pattern: PatternRandom,
				burstID: b, period: m.BurstPeriod,
			})
		}
	}
	// Stream sites spread through the loop body: their line-crossing misses
	// still cluster in time (all streams advance in lockstep) but the MLP
	// they expose spans a sizable stretch of the dynamic instruction stream,
	// as in the paper's Figure 4 distance profiles.
	for s := 0; s < m.StreamSites; s++ {
		idx := nextFree(s * (n / max(m.StreamSites+1, 1)))
		if idx < 0 {
			break
		}
		place(idx, site{role: roleLoad, class: isa.Load, pattern: PatternStream, streamID: streams, burstID: -1})
		streams++
	}
	// Chains.
	for c := 0; c < m.ChainSites; c++ {
		idx := nextFree(c*(n/max(m.ChainSites, 1)) + 1)
		if idx < 0 {
			break
		}
		place(idx, site{
			role: roleLoad, class: isa.Load, pattern: PatternChain,
			chainID: c % numChainRegs, period: m.ChainPeriod, burstID: -1,
		})
	}
	// Warm streamers.
	for w := 0; w < m.WarmSites; w++ {
		idx := nextFree(w*3 + 2)
		if idx < 0 {
			break
		}
		place(idx, site{role: roleLoad, class: isa.Load, pattern: PatternWarm, streamID: streams, burstID: -1})
		streams++
	}

	// Remaining loads (hot), stores, branches and FP filler by mix.
	wantLoads := int(m.LoadFrac * float64(n))
	wantStores := int(m.StoreFrac * float64(n))
	wantBranches := int(m.BranchFrac * float64(n))
	haveLoads := 0
	for i := range g.sites {
		if used[i] && g.sites[i].role == roleLoad {
			haveLoads++
		}
	}
	for haveLoads < wantLoads {
		idx := nextFree(g.rnd.Intn(n))
		if idx < 0 {
			break
		}
		place(idx, site{role: roleLoad, class: isa.Load, pattern: PatternHot, burstID: -1})
		haveLoads++
	}
	for s := 0; s < wantStores; s++ {
		idx := nextFree(g.rnd.Intn(n))
		if idx < 0 {
			break
		}
		place(idx, site{role: roleStore, class: isa.Store, pattern: PatternHot, burstID: -1})
	}
	branchSites := 0
	for b := 0; b < wantBranches; b++ {
		idx := nextFree(g.rnd.Intn(n))
		if idx < 0 {
			break
		}
		kind := BranchBiased
		switch {
		case g.rnd.Bool(m.BranchRandomFrac):
			kind = BranchRandom
		case branchSites%2 == 1:
			kind = BranchLoop
		}
		place(idx, site{role: roleBranch, class: isa.Branch, branch: kind, burstID: -1})
		branchSites++
	}
	// Filler: split remaining between int and FP per FPFrac; sprinkle
	// multiplies for latency diversity.
	for i := range g.sites {
		if used[i] {
			continue
		}
		s := site{role: roleFiller, class: isa.IntALU, burstID: -1}
		if g.rnd.Bool(m.FPFrac) {
			if g.rnd.Bool(0.25) {
				s.class = isa.FPMul
			} else {
				s.class = isa.FPALU
			}
		} else if g.rnd.Bool(0.1) {
			s.class = isa.IntMul
		}
		s.pc = codeBase + uint64(i)*4
		g.sites[i] = s
		used[i] = true
	}

	g.streamPos = slices.Grow(g.streamPos[:0], streams)[:streams]
	g.loopCount = slices.Grow(g.loopCount[:0], n)[:n]
	clear(g.streamPos)
	clear(g.loopCount)
}

// destFor rotates destination registers; FP classes draw from the FP file.
func (g *Generator) destFor(c isa.Class) int16 {
	g.destPos++
	if c.IsFP() {
		return isa.FPRegBase + int16(g.destPos%24)
	}
	return int16(g.destPos % 20) // r0..r19; chains own r24..r31
}

// farDest rotates the dedicated far-load destination registers.
func (g *Generator) farDest() int16 {
	g.farPos++
	r := farRegFirst + int16(g.farPos%numFarRegs)
	g.lastFar = r
	return r
}

// recentDest returns the destination register written dist instructions ago.
func (g *Generator) recentDest(dist int) int16 {
	if dist <= 0 {
		dist = 1
	}
	idx := (g.destPos - dist) % len(g.destRing)
	if idx < 0 {
		idx += len(g.destRing)
	}
	r := g.destRing[idx]
	if r == 0 {
		return isa.RegNone
	}
	return r
}

func (g *Generator) pushDest(r int16) {
	g.destRing[g.destPos%len(g.destRing)] = r
}

// Next generates the next dynamic instruction. The stream is infinite.
func (g *Generator) Next() isa.Instr {
	s := &g.sites[g.pos]
	in := isa.Instr{
		Seq:   g.seq,
		PC:    g.addrBase + s.pc,
		Class: s.class,
		Src1:  isa.RegNone,
		Src2:  isa.RegNone,
		Dest:  isa.RegNone,
	}
	m := &g.model

	push := true // whether the destination joins the filler dependence ring
	switch s.role {
	case roleLoad:
		switch s.pattern {
		case PatternHot:
			in.Dest = g.destFor(isa.Load)
			in.Addr = g.addrBase + hotBase + g.rnd.Uint64n(m.HotBytes)
			in.Src1 = g.recentDest(m.DepDist)
		case PatternWarm:
			in.Dest = g.farDest()
			push = false
			p := &g.streamPos[s.streamID]
			in.Addr = g.addrBase + warmBase + (*p)%m.WarmBytes
			*p += m.StreamStride
		case PatternStream:
			in.Dest = g.farDest()
			push = false
			p := &g.streamPos[s.streamID]
			// Each stream walks its own slice of the cold region.
			slice := m.ColdBytes / uint64(max(len(g.streamPos), 1))
			in.Addr = g.addrBase + coldBase + uint64(s.streamID)*slice + (*p)%slice
			*p += m.StreamStride
		case PatternRandom:
			in.Dest = g.farDest()
			push = false
			cold := int(g.iter)%s.period == 0 || g.rnd.Bool(m.MissJitter)
			if cold {
				in.Addr = g.addrBase + coldBase + g.rnd.Uint64n(m.ColdBytes)
			} else {
				in.Addr = g.addrBase + hotBase + g.rnd.Uint64n(m.HotBytes)
			}
		case PatternChain:
			reg := chainRegFirst + int16(s.chainID)
			in.Src1 = reg
			in.Dest = reg // the chase continues through the same register
			push = false
			cold := int(g.iter)%s.period == 0 || g.rnd.Bool(m.MissJitter)
			if cold {
				in.Addr = g.addrBase + coldBase + g.rnd.Uint64n(m.ColdBytes)
			} else {
				in.Addr = g.addrBase + hotBase + g.rnd.Uint64n(m.HotBytes)
			}
		}

	case roleStore:
		in.Addr = g.addrBase + hotBase + g.rnd.Uint64n(m.HotBytes)
		in.Src1 = g.recentDest(1) // store the most recent result
		in.Src2 = g.recentDest(m.DepDist)

	case roleBranch:
		in.Src1 = g.recentDest(1)
		switch s.branch {
		case BranchBiased:
			in.Taken = g.rnd.Bool(0.95)
		case BranchLoop:
			g.loopCount[g.pos]++
			in.Taken = g.loopCount[g.pos]%m.LoopPeriod != 0
		case BranchRandom:
			in.Taken = g.rnd.Bool(0.5)
		}
		in.Target = g.addrBase + s.target

	default: // filler ALU
		in.Dest = g.destFor(s.class)
		if g.lastFar != 0 && g.rnd.Bool(m.FarUseFrac) {
			in.Src1 = g.lastFar // consume the latest far load's value
		} else {
			in.Src1 = g.recentDest(m.DepDist)
		}
		in.Src2 = g.recentDest(m.DepDist * 2)
	}

	if push && in.HasDest() {
		g.pushDest(in.Dest)
	}

	g.seq++
	g.pos++
	if g.pos == len(g.sites) {
		g.pos = 0
		g.iter++
	}
	return in
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Cursor adapts a Generator to the pipeline's needs: fetch, rewind after a
// flush, and release committed instructions. It keeps every in-flight
// (delivered but unreleased) instruction so a flush can re-deliver the exact
// same dynamic instructions.
type Cursor struct {
	gen  *Generator
	buf  []isa.Instr // instructions [base, base+len) in sequence order; buf[head:] live
	head int         // released prefix of buf (compacted lazily)
	base uint64      // sequence number of buf[head]
	pos  uint64      // next sequence number to deliver
}

// NewCursor returns a cursor over gen starting at sequence 0.
func NewCursor(gen *Generator) *Cursor {
	return &Cursor{gen: gen}
}

// Reset restarts c at sequence 0 over its generator, reset in place to
// model and threadID (a zero Cursor gets a new one). The buffer is kept.
func (c *Cursor) Reset(model Model, threadID int) {
	gen := c.gen
	if gen == nil {
		gen = &Generator{}
	}
	gen.Reset(model, threadID)
	*c = Cursor{gen: gen, buf: c.buf[:0]}
}

// Fetch delivers the next instruction (possibly re-delivering after Rewind).
func (c *Cursor) Fetch() isa.Instr {
	idx := c.head + int(c.pos-c.base)
	if idx < len(c.buf) {
		in := c.buf[idx]
		c.pos++
		return in
	}
	in := c.gen.Next()
	if in.Seq != c.pos {
		panic(fmt.Sprintf("trace: generator out of sync: got seq %d, want %d", in.Seq, c.pos))
	}
	c.buf = append(c.buf, in)
	c.pos++
	return in
}

// Pos returns the sequence number of the next instruction Fetch will return.
func (c *Cursor) Pos() uint64 { return c.pos }

// Rewind moves the fetch position back to seq, which must not precede the
// oldest unreleased instruction.
func (c *Cursor) Rewind(seq uint64) {
	if seq < c.base || seq > c.pos {
		panic(fmt.Sprintf("trace: rewind to %d outside window [%d, %d]", seq, c.base, c.pos))
	}
	c.pos = seq
}

// Release discards instructions with sequence numbers <= seq (they are
// committed and can no longer be flush targets). It advances a head index
// rather than copying the buffer down on every commit; the dead prefix is
// reclaimed in O(1) amortized time when the buffer empties or the prefix
// dominates the backing array.
func (c *Cursor) Release(seq uint64) {
	if seq < c.base {
		return
	}
	drop := int(seq - c.base + 1)
	if live := len(c.buf) - c.head; drop > live {
		drop = live
	}
	c.head += drop
	c.base += uint64(drop)
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	} else if c.head >= 1024 && c.head*2 >= len(c.buf) {
		n := copy(c.buf, c.buf[c.head:])
		c.buf = c.buf[:n]
		c.head = 0
	}
}

// InFlight returns the number of buffered (unreleased) instructions.
func (c *Cursor) InFlight() int { return len(c.buf) - c.head }
