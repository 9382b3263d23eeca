package core

import (
	"fmt"
	"math"
	"slices"

	"smtmlp/internal/bpred"
	"smtmlp/internal/isa"
	"smtmlp/internal/mem"
	"smtmlp/internal/trace"
)

// thread is the per-context pipeline state.
type thread struct {
	id     int
	cursor trace.Cursor
	bp     bpred.Predictor
	mlp    MLPState

	feq uopRing // fetched, waiting out the front-end delay
	rob uopRing // dispatched, not committed, oldest first

	renameMap [128]*Uop // architectural register -> youngest in-flight writer

	icount        int   // fetched but not yet issued (ICOUNT's counter)
	fetchResumeAt int64 // branch redirect gate
	redirect      *Uop  // unresolved mispredicted branch blocking fetch

	// Per-thread occupancy of the shared resources (limiters read these).
	robCount, lsqCount      int
	iqIntCount, iqFPCount   int
	renIntCount, renFPCount int

	// Statistics.
	committed     uint64
	fetched       uint64
	flushes       uint64
	squashedCount uint64
	wbBlocked     uint64
	robOccAccum   int64 // integral of robCount over cycles

	profile     []ProfilePoint
	profileLeft uint64 // commits until the next profile checkpoint
}

// ProfilePoint records cumulative cycles at an instruction-count checkpoint,
// used by internal/sim to evaluate single-threaded CPI "after x_i million
// instructions" as the paper's STP/ANTT methodology requires.
type ProfilePoint struct {
	Instructions uint64
	Cycles       int64
}

// fetchCand is a fetch-stage candidate; the scratch slice lives on the Core
// so thread selection allocates nothing per cycle.
type fetchCand struct {
	t      *thread
	icount int
}

// Core is one simulated SMT processor instance. It is not safe for
// concurrent use; run one Core per goroutine.
type Core struct {
	cfg     Config
	policy  Policy
	limiter Limiter
	hier    *mem.Hierarchy
	threads []*thread
	arena   *uopArena

	now    int64
	events eventQueue
	nextID uint64

	// Shared resource occupancy.
	robUsed, lsqUsed      int
	iqIntUsed, iqFPUsed   int
	renIntUsed, renFPUsed int
	wbUsed                int

	// Ready lists: the issue-queue residents the issue stage acts on —
	// every source available, or squashed and awaiting release — in
	// dispatch order. Residents still waiting sit only in their producers'
	// waiter lists until their last source arrives.
	readyInt, readyFP []*Uop
	dispatchSeq       uint64 // last dispatch sequence number handed out

	commitRR   int
	dispatchRR int

	feqCap     int         // per-thread front-end queue capacity
	fetchCands []fetchCand // reusable fetch-stage scratch

	// Incremental skip-ahead state: threadWake caches the earliest thread
	// wake-up point (fetch resume or front-end queue head maturing).
	// wakeValid is cleared whenever front-end state changes, so consecutive
	// idle steps reuse the cached value instead of rescanning every thread.
	threadWake int64
	wakeValid  bool

	profileEvery uint64
	statsStart   int64 // cycle at the last ResetStats (measurement origin)
	lastAccrual  int64 // last cycle occupancy integrals were accrued

	// trace is the opt-in interval recorder (see trace.go); nil when
	// disabled, which is the only cost the hot loop pays for it.
	trace *intervalTrace

	// Statistics.
	ResourceStallCycles uint64

	activity bool // something happened this cycle (drives time skipping)
}

// New builds a core running one generator per hardware thread under the
// given fetch policy (nil means ICOUNT) and resource limiter (nil means
// fetch-policy-managed sharing). The memory hierarchy is created from
// cfg.Mem with the thread count forced to len(models).
func New(cfg Config, models []trace.Model, policy Policy, limiter Limiter) *Core {
	c := &Core{}
	c.Reset(cfg, models, policy, limiter)
	return c
}

// Reset turns c — a zero Core, or one left by any run, even one a panic
// aborted with uops in flight — into exactly the core New(cfg, models,
// policy, limiter) returns, reusing every buffer c holds. Each structure's
// reset carries over only buffers, so no state leaks into the next run, and
// the last run's Result, which owns its memory, stays valid.
func (c *Core) Reset(cfg Config, models []trace.Model, policy Policy, limiter Limiter) {
	if len(models) == 0 {
		panic("core: no workload models")
	}
	cfg.Threads = len(models)
	cfg.Mem.Threads = cfg.Threads
	if policy == nil {
		policy = ICount{}
	}
	feqCap := cfg.FetchWidth * (cfg.FrontEndDelay + 1)
	old := *c
	*c = Core{
		cfg:        cfg,
		policy:     policy,
		limiter:    limiter,
		hier:       reuse(old.hier),
		threads:    slices.Grow(old.threads[:0], len(models))[:len(models)],
		arena:      reuse(old.arena),
		events:     old.events,
		readyInt:   slices.Grow(old.readyInt[:0], cfg.IQInt),
		readyFP:    slices.Grow(old.readyFP[:0], cfg.IQFP),
		feqCap:     feqCap,
		fetchCands: slices.Grow(old.fetchCands[:0], len(models)),
	}
	c.hier.Reset(cfg.Mem)
	// In-flight uops are bounded by the front-end queues, the shared ROB and
	// the write buffer; squashed uops awaiting completion events add
	// transient slack, which the arena covers by growing.
	c.arena.reset(len(models)*feqCap + cfg.ROBSize + cfg.WriteBuffer + 64)
	c.events.reset()
	for i, m := range models {
		t := reuse(c.threads[i])
		// The profile is never carried over: the last Result holds it.
		*t = thread{id: i, cursor: t.cursor, bp: t.bp, mlp: t.mlp, feq: t.feq, rob: t.rob}
		t.cursor.Reset(m, i)
		t.bp.Reset(cfg.Bpred)
		t.mlp.reset(cfg.PredictorEntries, cfg.llsrSize())
		t.feq.reset(feqCap)
		t.rob.reset(cfg.ROBSize)
		c.threads[i] = t
	}
	policy.Attach(c)
}

// reuse returns p, or a new zero T when p is nil, so Reset rebuilds a zero
// Core's structures through the same path as a used one's.
func reuse[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// --- accessors used by policies, limiters and experiments ---

// Cfg returns the core's configuration.
func (c *Core) Cfg() Config { return c.cfg }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Threads returns the number of hardware contexts.
func (c *Core) Threads() int { return len(c.threads) }

// MLPState returns thread tid's MLP predictor state.
func (c *Core) MLPState(tid int) *MLPState { return &c.threads[tid].mlp }

// Hierarchy returns the shared memory hierarchy.
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// NextFetchSeq returns the sequence number of the next instruction thread
// tid will fetch; NextFetchSeq-1 is the youngest fetched instruction.
func (c *Core) NextFetchSeq(tid int) uint64 { return c.threads[tid].cursor.Pos() }

// ThreadResources reports thread tid's current occupancy of the shared
// buffer resources (ROB, LSQ, int IQ, FP IQ, int and FP rename registers).
func (c *Core) ThreadResources(tid int) (rob, lsq, iqInt, iqFP, renInt, renFP int) {
	t := c.threads[tid]
	return t.robCount, t.lsqCount, t.iqIntCount, t.iqFPCount, t.renIntCount, t.renFPCount
}

// OutstandingLLL reports how many long-latency loads of tid are in flight.
func (c *Core) OutstandingLLL(tid int) int { return c.hier.OutstandingLLL(tid, c.now) }

// ResetStats zeroes every measurement counter while keeping all
// microarchitectural state (cache and TLB contents, predictor tables,
// in-flight instructions). Call it after a warm-up phase so short measured
// runs are not dominated by compulsory misses and untrained predictors — the
// role SimPoint warm-up plays in the paper's methodology.
func (c *Core) ResetStats() {
	c.statsStart = c.now
	c.ResourceStallCycles = 0
	c.hier.ResetStats(c.now)
	c.lastAccrual = c.now
	for _, t := range c.threads {
		t.committed = 0
		t.fetched = 0
		t.flushes = 0
		t.squashedCount = 0
		t.wbBlocked = 0
		t.robOccAccum = 0
		t.profile = nil
		t.bp.ResetStats()
		t.mlp.resetStats()
	}
	if c.trace != nil {
		c.trace.restart(c)
	}
}

// --- flush (checkpoint restore) ---

// FlushAfter squashes every in-flight instruction of thread tid younger than
// sequence number seq and rewinds fetch to seq+1. The instruction with
// sequence seq itself survives, matching the paper's "flush starting from
// the instruction following the long-latency load". Issued memory accesses
// keep their cache side effects (the prefetching effect Section 6.5 relies
// on). It is a no-op when nothing younger than seq is in flight.
func (c *Core) FlushAfter(tid int, seq uint64) {
	t := c.threads[tid]
	flushed := false

	// Front-end queue: youngest entries first.
	for !t.feq.empty() {
		u := t.feq.back()
		if u.Seq() <= seq {
			break
		}
		t.feq.popBack()
		c.squash(t, u, false)
		flushed = true
	}
	// ROB suffix.
	for !t.rob.empty() {
		u := t.rob.back()
		if u.Seq() <= seq {
			break
		}
		t.rob.popBack()
		c.squash(t, u, true)
		flushed = true
	}
	if !flushed {
		return
	}
	t.flushes++
	c.activity = true
	c.wakeValid = false

	// Rebuild the rename map from the surviving dispatched instructions.
	for i := range t.renameMap {
		t.renameMap[i] = nil
	}
	for i := 0; i < t.rob.len(); i++ {
		u := t.rob.at(i)
		if u.In.HasDest() {
			t.renameMap[u.In.Dest] = u
		}
	}

	// A squashed unresolved branch no longer blocks fetch.
	if t.redirect != nil && t.redirect.Squashed() {
		t.redirect = nil
		t.fetchResumeAt = c.now
	}
	t.cursor.Rewind(seq + 1)
}

// squash releases the resources held by u and recycles its arena slot once
// no event or issue-queue reference remains. dispatched distinguishes ROB
// residents from front-end queue residents.
func (c *Core) squash(t *thread, u *Uop, dispatched bool) {
	switch u.state {
	case stateFetched:
		t.icount--
	case stateDispatched: // still in an issue queue
		t.icount--
		if u.In.Class.IsFP() {
			c.iqFPUsed--
			t.iqFPCount--
		} else {
			c.iqIntUsed--
			t.iqIntCount--
		}
		if u.pending > 0 {
			// A waiting resident moves to its ready list, where the next
			// issue pass releases it in queue order.
			c.arena.unlink(u)
			c.makeReady(u)
		}
	}
	if dispatched {
		c.robUsed--
		t.robCount--
		if u.In.Class.IsMem() {
			c.lsqUsed--
			t.lsqCount--
		}
		if u.In.HasDest() {
			if isa.IsFPReg(u.In.Dest) {
				c.renFPUsed--
				t.renFPCount--
			} else {
				c.renIntUsed--
				t.renIntCount--
			}
		}
	}
	u.state = stateSquashed
	c.wake(u) // a squashed producer delays no consumer
	t.squashedCount++
	c.policy.OnSquash(u)
	c.freeIfDead(u)
}

// freeIfDead recycles u's arena slot once it is in a terminal state with no
// pending event or issue-queue reference. This is the kernel's single
// release point; every refs decrement and terminal transition funnels here.
func (c *Core) freeIfDead(u *Uop) {
	if u.refs == 0 && (u.state == stateSquashed || u.state == stateCommitted) {
		c.arena.release(u)
	}
}

// --- main loop ---

// Run simulates until any thread has committed stopAt instructions (the
// paper's multiprogram stopping rule) and returns the run's statistics.
func (c *Core) Run(stopAt uint64) Result {
	if stopAt == 0 {
		stopAt = 1
	}
	c.profileEvery = stopAt / 256
	if c.profileEvery == 0 {
		c.profileEvery = 1
	}
	// Pre-size the profile buffers so checkpoint appends never allocate in
	// the measured loop.
	want := int(stopAt/c.profileEvery) + 8
	for _, t := range c.threads {
		if cap(t.profile) < want {
			t.profile = make([]ProfilePoint, len(t.profile), want)
		}
		t.profileLeft = c.profileEvery - t.committed%c.profileEvery
	}
	for {
		c.step()
		for _, t := range c.threads {
			if t.committed >= stopAt {
				return c.result()
			}
		}
		if c.cfg.MaxCycles > 0 && c.now > c.cfg.MaxCycles {
			panic(fmt.Sprintf("core: exceeded MaxCycles=%d (committed=%v)", c.cfg.MaxCycles, c.committedCounts()))
		}
	}
}

func (c *Core) committedCounts() []uint64 {
	out := make([]uint64, len(c.threads))
	for i, t := range c.threads {
		out[i] = t.committed
	}
	return out
}

// step advances one cycle (or skips idle time to the next wake-up point).
func (c *Core) step() {
	c.now++
	c.activity = false

	// Accrue occupancy integrals over the interval since the last step
	// (state is frozen across skipped idle cycles, so this is exact).
	if dt := c.now - c.lastAccrual; dt > 0 {
		for _, t := range c.threads {
			t.robOccAccum += int64(t.robCount) * dt
		}
		c.lastAccrual = c.now
	}

	c.processEvents()
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()

	if tr := c.trace; tr != nil && c.now >= tr.nextAt {
		c.record(tr)
	}

	if c.activity {
		return
	}
	// Nothing happened: skip forward to the next event, fetch resume, or
	// front-end queue head becoming old enough to dispatch. The thread-side
	// wake point is cached incrementally — front-end state only changes on
	// active cycles, so consecutive idle steps reuse it instead of
	// rescanning every thread's queues.
	wake := int64(math.MaxInt64)
	if ev, ok := c.events.peekCycle(c.now); ok {
		wake = ev // always > now: due events were popped this cycle
	}
	if !c.wakeValid || (c.threadWake <= c.now && c.threadWake != math.MaxInt64) {
		c.recomputeThreadWake()
	}
	if c.threadWake > c.now && c.threadWake < wake {
		wake = c.threadWake
	}
	if wake == math.MaxInt64 {
		panic(fmt.Sprintf("core: deadlock at cycle %d: no pending events (committed=%v, rob=%d/%d, wb=%d/%d)",
			c.now, c.committedCounts(), c.robUsed, c.cfg.ROBSize, c.wbUsed, c.cfg.WriteBuffer))
	}
	if wake > c.now {
		c.now = wake - 1 // the next step() lands exactly on wake
	}
}

// recomputeThreadWake rebuilds the cached thread wake point: the earliest
// future fetch-resume or front-end queue maturation across all threads.
func (c *Core) recomputeThreadWake() {
	wake := int64(math.MaxInt64)
	for _, t := range c.threads {
		if t.fetchResumeAt > c.now && t.fetchResumeAt < wake {
			wake = t.fetchResumeAt
		}
		if !t.feq.empty() {
			if due := t.feq.front().fetchedAt + int64(c.cfg.FrontEndDelay); due > c.now && due < wake {
				wake = due
			}
		}
	}
	c.threadWake = wake
	c.wakeValid = true
}

func (c *Core) processEvents() {
	for {
		ev, ok := c.events.popIfDue(c.now)
		if !ok {
			return
		}
		c.activity = true
		u := ev.uop
		u.refs--
		switch ev.kind {
		case evWriteBufferFree:
			c.wbUsed--
		case evDetectLLL:
			if !u.Squashed() {
				c.policy.OnLLLDetected(u)
			}
		case evComplete:
			if u.In.Class == isa.Load {
				c.policy.OnLoadComplete(u)
			}
			if u.Squashed() {
				break
			}
			u.state = stateDone
			c.wake(u)
			if u.In.Class == isa.Branch && u.Mispredicted {
				t := c.threads[u.Tid]
				if t.redirect == u {
					t.redirect = nil
					resume := int64(c.cfg.MispredictPenalty - c.cfg.FrontEndDelay)
					if resume < 1 {
						resume = 1
					}
					t.fetchResumeAt = c.now + resume
					c.wakeValid = false
				}
			}
		}
		c.freeIfDead(u)
	}
}

// commit retires up to CommitWidth done instructions, round-robin across
// threads, in order within each thread. Stores must win a write buffer entry
// to commit; a full write buffer blocks the thread (Table IV's semantics).
func (c *Core) commit() {
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	idx := c.commitRR
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[idx]
		if idx++; idx == n {
			idx = 0
		}
		for budget > 0 && !t.rob.empty() {
			u := t.rob.front()
			if u.state != stateDone {
				break
			}
			if u.In.Class == isa.Store {
				if c.wbUsed >= c.cfg.WriteBuffer {
					t.wbBlocked++
					break
				}
				c.wbUsed++
				acc := c.hier.Store(t.id, u.In.Addr, c.now)
				u.Access = acc
				c.events.schedule(c.now, c.now+1+acc.Latency, evWriteBufferFree, u)
			}
			// Retire.
			t.rob.popFront()
			c.robUsed--
			t.robCount--
			if u.In.Class.IsMem() {
				c.lsqUsed--
				t.lsqCount--
			}
			if u.In.HasDest() {
				if isa.IsFPReg(u.In.Dest) {
					c.renFPUsed--
					t.renFPCount--
				} else {
					c.renIntUsed--
					t.renIntCount--
				}
				if t.renameMap[u.In.Dest] == u {
					t.renameMap[u.In.Dest] = nil
				}
			}
			t.mlp.observeCommit(u.IsLLL, u.In.PC)
			t.cursor.Release(u.Seq())
			t.committed++
			t.profileLeft--
			if t.profileLeft == 0 {
				t.profile = append(t.profile, ProfilePoint{Instructions: t.committed, Cycles: c.now - c.statsStart})
				t.profileLeft = c.profileEvery
			}
			budget--
			c.activity = true
			u.state = stateCommitted
			c.freeIfDead(u) // stores stay pinned by their write-buffer event
		}
	}
	if c.commitRR++; c.commitRR == n {
		c.commitRR = 0
	}
}

// execLatency returns the functional-unit latency of non-memory classes.
func execLatency(class isa.Class) int64 {
	switch class {
	case isa.IntMul:
		return 3
	case isa.FPALU:
		return 4
	case isa.FPMul:
		return 6
	default: // IntALU, Branch, Store address generation
		return 1
	}
}

// wake walks and clears p's waiter list once p has completed or been
// squashed: p delays no consumer any longer, and a consumer whose last
// source arrives joins its ready list.
func (c *Core) wake(p *Uop) {
	a := c.arena
	for n := a.waiters[p.arenaIdx]; n >= 0; {
		u := a.at(n >> 1)
		l := &u.src[n&1]
		n = l.next
		l.prod = -1
		if u.pending--; u.pending == 0 {
			c.makeReady(u)
		}
	}
	a.waiters[p.arenaIdx] = -1
}

// makeReady inserts u into its class's ready list by dispatch sequence.
func (c *Core) makeReady(u *Uop) {
	q := &c.readyInt
	if u.In.Class.IsFP() {
		q = &c.readyFP
	}
	r := append(*q, u)
	i := len(r) - 1
	for ; i > 0 && r[i-1].dseq > u.dseq; i-- {
		r[i] = r[i-1]
	}
	r[i] = u
	*q = r
}

// issue selects ready instructions oldest-first from the issue queues,
// bounded by IssueWidth and per-class functional unit counts, and schedules
// their completion. Loads access the memory hierarchy here. Only the ready
// lists are walked: they hold, in queue order, exactly the residents that
// can issue or must be released, so the stage's cost follows them and not
// the residents still waiting on a producer.
func (c *Core) issue() {
	budget := c.cfg.IssueWidth
	alu := c.cfg.IntALUs
	ldst := c.cfg.LdStUnits
	fp := c.cfg.FPUnits

	scan := func(q []*Uop) []*Uop {
		kept := q[:0]
		for _, u := range q {
			if u.Squashed() {
				// Reclaim the slot silently; squash already counted it.
				// Leaving the queue drops the last reference.
				u.refs--
				c.freeIfDead(u)
				continue
			}
			if budget <= 0 {
				kept = append(kept, u)
				continue
			}
			var unit *int
			switch u.In.Class {
			case isa.Load, isa.Store:
				unit = &ldst
			case isa.FPALU, isa.FPMul:
				unit = &fp
			default:
				unit = &alu
			}
			if *unit <= 0 {
				kept = append(kept, u)
				continue
			}
			*unit--
			budget--
			u.refs-- // leaves the issue queue; events pin it from here
			c.issueUop(u)
		}
		return kept
	}
	c.readyInt = scan(c.readyInt)
	c.readyFP = scan(c.readyFP)
}

func (c *Core) issueUop(u *Uop) {
	t := c.threads[u.Tid]
	u.state = stateIssued
	t.icount--
	if u.In.Class.IsFP() {
		c.iqFPUsed--
		t.iqFPCount--
	} else {
		c.iqIntUsed--
		t.iqIntCount--
	}
	c.activity = true

	if u.In.Class == isa.Load {
		acc := c.hier.Load(u.Tid, u.In.PC, u.In.Addr, c.now)
		u.Access = acc
		u.IsLLL = acc.LongLatency
		// Train the miss-pattern predictor with the actual outcome; the
		// returned value is what the front end would have predicted, which
		// Update accounts for Figure 6's accuracy statistics.
		t.mlp.MissPattern.Update(u.In.PC, u.IsLLL)
		done := c.now + 1 + acc.Latency
		if u.IsLLL {
			detect := c.now + c.cfg.detectDelay()
			if detect > done {
				detect = done
			}
			c.events.schedule(c.now, detect, evDetectLLL, u)
		}
		c.events.schedule(c.now, done, evComplete, u)
		return
	}
	c.events.schedule(c.now, c.now+execLatency(u.In.Class), evComplete, u)
}

// dispatch moves instructions whose front-end delay has elapsed from the
// front-end queues into the ROB, LSQ, issue queues and rename registers. It
// also detects resource-stall cycles for the Section 6.5 alternatives.
func (c *Core) dispatch() {
	budget := c.cfg.FetchWidth
	n := len(c.threads)
	wanted := false // some thread had a dispatchable head
	dispatched := 0
	sharedBlocked := false // some head was blocked on a shared resource

	idx := c.dispatchRR
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[idx]
		if idx++; idx == n {
			idx = 0
		}
		for budget > 0 && !t.feq.empty() {
			u := t.feq.front()
			if u.fetchedAt+int64(c.cfg.FrontEndDelay) > c.now {
				break
			}
			wanted = true
			if !c.haveResources(u) {
				sharedBlocked = true
				break
			}
			if c.limiter != nil && !c.limiter.MayDispatch(c, t.id, u) {
				break
			}
			t.feq.popFront()
			c.dispatchUop(t, u)
			dispatched++
			budget--
		}
	}
	if c.dispatchRR++; c.dispatchRR == n {
		c.dispatchRR = 0
	}
	if dispatched > 0 {
		c.activity = true
		c.wakeValid = false
	}
	if wanted && dispatched == 0 && sharedBlocked {
		c.ResourceStallCycles++
		c.policy.OnResourceStall(c.now)
	}
}

// haveResources checks shared structural resources for dispatching u.
func (c *Core) haveResources(u *Uop) bool {
	if c.robUsed >= c.cfg.ROBSize {
		return false
	}
	if u.In.Class.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
		return false
	}
	if u.In.Class.IsFP() {
		if c.iqFPUsed >= c.cfg.IQFP {
			return false
		}
	} else if c.iqIntUsed >= c.cfg.IQInt {
		return false
	}
	if u.In.HasDest() {
		if isa.IsFPReg(u.In.Dest) {
			if c.renFPUsed >= c.cfg.RenameFP {
				return false
			}
		} else if c.renIntUsed >= c.cfg.RenameInt {
			return false
		}
	}
	return true
}

func (c *Core) dispatchUop(t *thread, u *Uop) {
	u.state = stateDispatched
	t.rob.pushBack(u)
	c.robUsed++
	t.robCount++
	if u.In.Class.IsMem() {
		c.lsqUsed++
		t.lsqCount++
	}
	if u.In.HasDest() {
		if isa.IsFPReg(u.In.Dest) {
			c.renFPUsed++
			t.renFPCount++
		} else {
			c.renIntUsed++
			t.renIntCount++
		}
	}

	// Rename: a source whose producer is still in flight waits in that
	// producer's waiter list.
	c.linkSource(t, u, 0, u.In.Src1)
	c.linkSource(t, u, 1, u.In.Src2)
	if u.In.HasDest() {
		t.renameMap[u.In.Dest] = u
	}

	u.refs++ // issue-queue residency pins the arena slot
	c.dispatchSeq++
	u.dseq = c.dispatchSeq
	if u.In.Class.IsFP() {
		c.iqFPUsed++
		t.iqFPCount++
	} else {
		c.iqIntUsed++
		t.iqIntCount++
	}
	if u.pending == 0 {
		c.makeReady(u) // the youngest resident: appended at the end
	}
}

// linkSource makes source s of u wait on reg's producer when that producer
// is dispatched but not yet done.
func (c *Core) linkSource(t *thread, u *Uop, s int32, reg int16) {
	if reg == isa.RegNone {
		return
	}
	if p := t.renameMap[reg]; p != nil && !p.Done() && !p.Squashed() {
		c.arena.link(p, u, s)
	}
}

// fetch implements ICOUNT 2.4: up to FetchWidth instructions per cycle from
// up to FetchThreads threads, prioritized by lowest in-flight instruction
// count, with the active fetch policy gating individual threads. Candidate
// selection reuses a scratch slice and an insertion sort over at most
// Threads entries, so the stage allocates nothing.
func (c *Core) fetch() {
	cands := c.fetchCands[:0]
	for _, t := range c.threads {
		if t.fetchResumeAt > c.now || t.redirect != nil {
			continue
		}
		if t.feq.len() >= c.feqCap {
			continue
		}
		if !c.policy.CanFetch(t.id) {
			continue
		}
		cands = append(cands, fetchCand{t, t.icount})
	}
	// Insertion sort by (icount, thread id): deterministic total order, at
	// most Threads entries, no closure or reflection.
	for i := 1; i < len(cands); i++ {
		cd := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].icount > cd.icount ||
			(cands[j].icount == cd.icount && cands[j].t.id > cd.t.id)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = cd
	}

	slots := c.cfg.FetchWidth
	threadsUsed := 0
	for _, cd := range cands {
		if slots <= 0 || threadsUsed >= c.cfg.FetchThreads {
			break
		}
		t := cd.t
		threadsUsed++
		for slots > 0 && t.feq.len() < c.feqCap {
			in := t.cursor.Fetch()
			c.nextID++
			u := c.arena.alloc()
			u.In = in
			u.Tid = t.id
			u.ID = c.nextID
			u.fetchedAt = c.now
			u.state = stateFetched
			t.feq.pushBack(u)
			t.icount++
			t.fetched++
			slots--
			c.activity = true
			c.wakeValid = false

			stop := false
			switch in.Class {
			case isa.Load:
				u.PredictedLLL = t.mlp.MissPattern.Predict(in.PC)
			case isa.Branch:
				predTaken, _, _ := t.bp.Predict(in.PC)
				u.Mispredicted = t.bp.Resolve(in.PC, in.Taken, in.Target)
				if u.Mispredicted {
					// Fetch is blocked until the branch resolves; the
					// redirect penalty is charged at resolution.
					t.redirect = u
					stop = true
				} else if predTaken {
					// Correctly predicted taken branch ends the fetch block.
					stop = true
				}
			}
			c.policy.OnFetch(u)
			if stop || !c.policy.CanFetch(t.id) {
				break
			}
		}
	}
}

// Result summarizes a run.
type Result struct {
	Cycles               int64
	Committed            []uint64
	Fetched              []uint64
	Flushes              []uint64
	Squashed             []uint64
	IPC                  []float64
	MLP                  []float64 // Chou et al. MLP per thread
	LLLs                 []uint64  // long-latency loads per thread
	LLLPer1K             []float64
	BranchMispredictRate []float64
	WBBlocked            []uint64
	AvgROBOccupancy      []float64 // mean ROB entries held, per thread
	ResourceStallCycles  uint64
	Profiles             [][]ProfilePoint
	// Intervals holds the per-thread interval-trace samples (nil unless
	// EnableIntervalTrace was called).
	Intervals [][]IntervalSample
}

// TotalIPC returns committed instructions (all threads) per cycle.
func (r Result) TotalIPC() float64 {
	var sum uint64
	for _, n := range r.Committed {
		sum += n
	}
	if r.Cycles == 0 {
		return 0
	}
	return float64(sum) / float64(r.Cycles)
}

func (c *Core) result() Result {
	r := Result{
		Cycles:              c.now - c.statsStart,
		ResourceStallCycles: c.ResourceStallCycles,
	}
	for _, t := range c.threads {
		r.Committed = append(r.Committed, t.committed)
		r.Fetched = append(r.Fetched, t.fetched)
		r.Flushes = append(r.Flushes, t.flushes)
		r.Squashed = append(r.Squashed, t.squashedCount)
		r.WBBlocked = append(r.WBBlocked, t.wbBlocked)
		ipc := 0.0
		if r.Cycles > 0 {
			ipc = float64(t.committed) / float64(r.Cycles)
		}
		r.IPC = append(r.IPC, ipc)
		mlpVal, llls := c.hier.ThreadMLP(t.id, c.now)
		r.MLP = append(r.MLP, mlpVal)
		r.LLLs = append(r.LLLs, llls)
		per1k := 0.0
		if t.committed > 0 {
			per1k = 1000 * float64(llls) / float64(t.committed)
		}
		r.LLLPer1K = append(r.LLLPer1K, per1k)
		r.BranchMispredictRate = append(r.BranchMispredictRate, t.bp.MispredictRate())
		occ := 0.0
		if r.Cycles > 0 {
			occ = float64(t.robOccAccum) / float64(r.Cycles)
		}
		r.AvgROBOccupancy = append(r.AvgROBOccupancy, occ)
		r.Profiles = append(r.Profiles, t.profile)
	}
	if c.trace != nil {
		r.Intervals = c.trace.snapshot()
	}
	return r
}
