package core

import (
	"fmt"
	"slices"
	"testing"

	"smtmlp/internal/isa"
	"smtmlp/internal/trace"
)

// wakeupCore returns a one-thread core with nothing in flight, whose
// dispatch, issue and event stages the wakeup tests drive by hand.
func wakeupCore() (*Core, *thread) {
	c := New(DefaultConfig(1), []trace.Model{pureALUModel()}, nil, nil)
	return c, c.threads[0]
}

// dispatchInstr allocates a uop for in and dispatches it on t, as the
// dispatch stage does once the front-end delay has passed.
func dispatchInstr(c *Core, t *thread, in isa.Instr) *Uop {
	u := c.arena.alloc()
	u.In = in
	u.Tid = t.id
	t.icount++
	c.dispatchUop(t, u)
	return u
}

// intOp is an integer instruction of the given class writing dest from
// src1 and src2 (isa.RegNone for an absent operand).
func intOp(seq uint64, class isa.Class, dest, src1, src2 int16) isa.Instr {
	return isa.Instr{Seq: seq, Class: class, Dest: dest, Src1: src1, Src2: src2}
}

// eventsAt runs the event stage at cycle now.
func eventsAt(c *Core, now int64) {
	c.now = now
	c.processEvents()
}

// waiting reports how many of u's sources are linked into a producer's list.
func waiting(u *Uop) int {
	n := 0
	for _, l := range u.src {
		if l.prod >= 0 {
			n++
		}
	}
	return n
}

func TestWakeupTwoProducers(t *testing.T) {
	c, th := wakeupCore()
	const none = isa.RegNone
	p1 := dispatchInstr(c, th, intOp(1, isa.IntALU, 1, none, none)) // done at cycle 1
	p2 := dispatchInstr(c, th, intOp(2, isa.IntMul, 2, none, none)) // done at cycle 3
	u := dispatchInstr(c, th, intOp(3, isa.IntALU, 3, 1, 2))
	if u.pending != 2 || waiting(u) != 2 {
		t.Fatalf("consumer of two in-flight producers: pending=%d links=%d, want 2 and 2", u.pending, waiting(u))
	}
	if got := c.readyInt; !slices.Equal(got, []*Uop{p1, p2}) {
		t.Fatalf("ready list holds %d uops, want only the two producers", len(got))
	}
	c.issue()
	if len(c.readyInt) != 0 {
		t.Fatalf("ready list holds %d uops after both producers issued, want 0", len(c.readyInt))
	}
	eventsAt(c, 1)
	if u.pending != 1 || u.src[0].prod >= 0 || u.src[1].prod != p2.arenaIdx {
		t.Fatalf("after the first producer completed: pending=%d src=%+v, want one link to the second producer", u.pending, u.src)
	}
	if len(c.readyInt) != 0 {
		t.Fatal("consumer became ready with one producer still in flight")
	}
	eventsAt(c, 3)
	if u.pending != 0 || waiting(u) != 0 {
		t.Fatalf("after both producers completed: pending=%d links=%d, want 0 and 0", u.pending, waiting(u))
	}
	if !slices.Equal(c.readyInt, []*Uop{u}) {
		t.Fatal("consumer not on the ready list once its last source arrived")
	}
	if c.arena.waiters[p1.arenaIdx] != -1 || c.arena.waiters[p2.arenaIdx] != -1 {
		t.Fatal("a completed producer kept its waiter list")
	}
}

func TestWakeupOneProducerFeedsBothSources(t *testing.T) {
	c, th := wakeupCore()
	const none = isa.RegNone
	p := dispatchInstr(c, th, intOp(1, isa.IntALU, 1, none, none))
	u := dispatchInstr(c, th, intOp(2, isa.IntALU, 2, 1, 1))
	if u.pending != 2 || u.src[0].prod != p.arenaIdx || u.src[1].prod != p.arenaIdx {
		t.Fatalf("consumer reading one producer twice: pending=%d src=%+v, want both sources linked to it", u.pending, u.src)
	}
	// Both of u's nodes sit in p's list, newest link first.
	if head := c.arena.waiters[p.arenaIdx]; head != u.arenaIdx<<1|1 || u.src[1].next != u.arenaIdx<<1 {
		t.Fatalf("producer's list starts at node %d, want both of the consumer's nodes", head)
	}
	c.issue()
	eventsAt(c, 1)
	if u.pending != 0 || waiting(u) != 0 || !slices.Equal(c.readyInt, []*Uop{u}) {
		t.Fatalf("one completion left pending=%d links=%d ready=%d, want the consumer ready", u.pending, waiting(u), len(c.readyInt))
	}
}

func TestWakeupSquashedConsumerReleasedAtNextIssue(t *testing.T) {
	c, th := wakeupCore()
	const none = isa.RegNone
	p := dispatchInstr(c, th, intOp(1, isa.IntMul, 1, none, none))
	c.issue()
	u := dispatchInstr(c, th, intOp(2, isa.IntALU, 2, 1, none))
	if u.pending != 1 || c.arena.waiters[p.arenaIdx] != u.arenaIdx<<1 {
		t.Fatal("consumer not linked to its in-flight producer")
	}
	free := len(c.arena.free)
	th.rob.popBack() // squash the ROB suffix after p, as FlushAfter does
	c.squash(th, u, true)

	// Unlinked at once...
	if !u.Squashed() || u.pending != 0 || waiting(u) != 0 {
		t.Fatalf("squashed consumer: squashed=%t pending=%d links=%d, want squashed and unlinked", u.Squashed(), u.pending, waiting(u))
	}
	if c.arena.waiters[p.arenaIdx] != -1 {
		t.Fatal("squashed consumer still in its producer's waiter list")
	}
	// ...but its slot stays pinned by issue-queue residency until the next
	// issue pass drops it from the ready list.
	if !slices.Equal(c.readyInt, []*Uop{u}) || u.refs != 1 || len(c.arena.free) != free {
		t.Fatalf("after squash: ready=%d refs=%d free=%d (was %d), want the consumer on the ready list, pinned, not released",
			len(c.readyInt), u.refs, len(c.arena.free), free)
	}
	eventsAt(c, 1) // an event stage alone does not release it
	if len(c.arena.free) != free {
		t.Fatal("squashed consumer released before the next issue pass")
	}
	c.issue()
	if len(c.readyInt) != 0 || u.refs != 0 || len(c.arena.free) != free+1 || c.arena.free[free] != u.arenaIdx {
		t.Fatalf("after the issue pass: ready=%d refs=%d free=%d, want the consumer's slot released", len(c.readyInt), u.refs, len(c.arena.free))
	}
	// The producer completes later without touching the released consumer.
	eventsAt(c, 3)
	if !p.Done() || c.arena.waiters[p.arenaIdx] != -1 {
		t.Fatal("producer did not complete cleanly after its consumer was squashed")
	}
}

func TestWakeupJoinsReadyListInDispatchOrder(t *testing.T) {
	c, th := wakeupCore()
	const none = isa.RegNone
	p := dispatchInstr(c, th, intOp(1, isa.IntMul, 1, none, none)) // done at cycle 3
	dispatchInstr(c, th, intOp(2, isa.IntALU, 2, none, none))      // done at cycle 1
	c.issue()
	c1 := dispatchInstr(c, th, intOp(3, isa.IntALU, 3, 1, none))
	y := dispatchInstr(c, th, intOp(4, isa.IntALU, 4, 2, none))
	c2 := dispatchInstr(c, th, intOp(5, isa.IntALU, 5, 1, none))
	c3 := dispatchInstr(c, th, intOp(6, isa.IntALU, 6, none, 1))
	eventsAt(c, 1) // y's producer completes: y is ready and, with no issue pass, stays
	if !slices.Equal(c.readyInt, []*Uop{y}) {
		t.Fatal("consumer of the completed producer not ready")
	}
	if c.arena.waiters[p.arenaIdx] != c3.arenaIdx<<1|1 {
		t.Fatal("the newest consumer does not head the producer's waiter list")
	}
	eventsAt(c, 3) // walks p's list newest first: c3, c2, c1
	if want := []*Uop{c1, y, c2, c3}; !slices.Equal(c.readyInt, want) {
		got := make([]uint64, len(c.readyInt))
		for i, u := range c.readyInt {
			got[i] = u.Seq()
		}
		t.Fatalf("ready list by sequence %v, want [3 4 5 6] (dispatch order)", got)
	}
}

// checkWakeup verifies the wakeup structures against the pipeline state:
//   - each ready list strictly increases in dispatch sequence and holds only
//     issue-queue residents of its class, waiting on nothing;
//   - a dispatched, non-squashed ROB entry is on its ready list exactly when
//     its pending count is 0;
//   - every uop's pending count equals its number of links, and only
//     dispatched, non-squashed uops have any;
//   - every producer with waiters is in flight (dispatched or issued), and
//     its list and its consumers' links agree both ways;
//   - iqIntUsed and iqFPUsed count the dispatched, non-squashed residents;
//   - a released slot's waiter list is empty;
//   - every live uop's references are its pending events plus, while it
//     waits or sits on a ready list, its issue-queue residency, so a
//     squashed resident cannot leak.
func checkWakeup(c *Core, s *checkScratch) error {
	a := c.arena
	n := a.cap()
	s.reset(n)
	free, onReady := s.free, s.onReady
	for _, idx := range a.free {
		free[idx] = true
	}
	for _, ev := range c.events.items {
		s.evRefs[ev.uop.arenaIdx]++
	}
	for i := range c.events.wheel {
		b := &c.events.wheel[i]
		for _, ev := range b.evs[b.head:] {
			s.evRefs[ev.uop.arenaIdx]++
		}
	}
	for _, list := range []struct {
		fp bool
		q  []*Uop
	}{{false, c.readyInt}, {true, c.readyFP}} {
		for i, u := range list.q {
			if i > 0 && list.q[i-1].dseq >= u.dseq {
				return fmt.Errorf("ready list (fp=%t) out of dispatch order at %d: %d after %d", list.fp, i, u.dseq, list.q[i-1].dseq)
			}
			if u.In.Class.IsFP() != list.fp || free[u.arenaIdx] || onReady[u.arenaIdx] {
				return fmt.Errorf("ready list (fp=%t) holds a wrong-class, released or repeated uop %s", list.fp, u.In.String())
			}
			if (u.state != stateDispatched && u.state != stateSquashed) || u.pending != 0 {
				return fmt.Errorf("ready list holds uop %s in state %d with %d pending sources", u.In.String(), u.state, u.pending)
			}
			onReady[u.arenaIdx] = true
		}
	}
	var iqInt, iqFP int
	for _, t := range c.threads {
		for i := 0; i < t.rob.len(); i++ {
			u := t.rob.at(i)
			if u.state != stateDispatched {
				continue
			}
			if u.In.Class.IsFP() {
				iqFP++
			} else {
				iqInt++
			}
			if onReady[u.arenaIdx] != (u.pending == 0) {
				return fmt.Errorf("resident %s with %d pending sources: on ready list = %t", u.In.String(), u.pending, onReady[u.arenaIdx])
			}
		}
	}
	if iqInt != c.iqIntUsed || iqFP != c.iqFPUsed {
		return fmt.Errorf("issue-queue occupancy int=%d fp=%d, residents int=%d fp=%d", c.iqIntUsed, c.iqFPUsed, iqInt, iqFP)
	}
	nodes, links := 0, 0
	for slot := int32(0); slot < int32(n); slot++ {
		head := a.waiters[slot]
		if free[slot] {
			if head >= 0 {
				return fmt.Errorf("released slot %d has a waiter list", slot)
			}
			continue
		}
		u := a.at(slot)
		refs := s.evRefs[slot]
		if onReady[slot] || u.state == stateDispatched {
			refs++
		}
		if u.refs != refs {
			return fmt.Errorf("uop %s in state %d holds %d references, want %d", u.In.String(), u.state, u.refs, refs)
		}
		k := waiting(u)
		if k != int(u.pending) || (k > 0 && u.state != stateDispatched) {
			return fmt.Errorf("uop %s in state %d: pending=%d but %d links", u.In.String(), u.state, u.pending, k)
		}
		links += k
		if head < 0 {
			continue
		}
		if u.state != stateDispatched && u.state != stateIssued {
			return fmt.Errorf("producer %s in state %d still has waiters", u.In.String(), u.state)
		}
		prev := int32(-1)
		for nd := head; nd >= 0; nd = a.node(nd).next {
			l := a.node(nd)
			if l.prod != slot || l.prev != prev || free[nd>>1] {
				return fmt.Errorf("waiter list of slot %d: node %d links producer %d, prev %d (want %d), released=%t",
					slot, nd, l.prod, l.prev, prev, free[nd>>1])
			}
			prev = nd
			if nodes++; nodes > 2*n {
				return fmt.Errorf("waiter list of slot %d does not terminate", slot)
			}
		}
	}
	if nodes != links {
		return fmt.Errorf("waiter lists hold %d nodes, consumers %d links", nodes, links)
	}
	return nil
}

// checkScratch is checkWakeup's per-slot scratch, reused across steps.
type checkScratch struct {
	free, onReady []bool
	evRefs        []int32
}

func (s *checkScratch) reset(n int) {
	if len(s.free) != n {
		*s = checkScratch{free: make([]bool, n), onReady: make([]bool, n), evRefs: make([]int32, n)}
		return
	}
	clear(s.free)
	clear(s.onReady)
	clear(s.evRefs)
}

// RunChecked runs the core like Run until a thread commits stopAt
// instructions (without profile checkpoints), verifying the wakeup
// invariants after every step. Exported for the package's external tests,
// which drive every policy kind.
func (c *Core) RunChecked(stopAt uint64) error {
	var s checkScratch
	for {
		c.step()
		if err := checkWakeup(c, &s); err != nil {
			return fmt.Errorf("cycle %d: %w", c.now, err)
		}
		for _, t := range c.threads {
			if t.committed >= stopAt {
				return nil
			}
		}
	}
}
