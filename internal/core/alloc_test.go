package core

import (
	"testing"

	"smtmlp/internal/trace"
)

// warmedCore builds a core, runs it past the point where every pooled
// structure (uop arena, event heap, issue queues, cursor buffers, MSHR
// table) has reached its steady-state size, and disables profile
// checkpointing so commit never appends.
func warmedCore(models []trace.Model, p Policy) *Core {
	c := New(DefaultConfig(len(models)), models, p, nil)
	c.Run(40_000)
	c.profileEvery = 1 << 62
	for _, t := range c.threads {
		t.profileLeft = 1 << 62
	}
	return c
}

// stepN advances the core n committed instructions (per the stop rule).
func stepN(c *Core, n uint64) {
	target := c.threads[0].committed + n
	for c.threads[0].committed < target {
		c.step()
	}
}

// TestSteadyStateZeroAlloc pins the tentpole claim: a warmed-up cycle kernel
// performs zero heap allocations per committed instruction. The uop arena,
// ring-buffer ROB/FEQ, typed event heap, pre-sized ready lists with
// waiter lists threaded through the uops, and open-addressed MSHR table
// leave nothing to allocate on the hot path.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name   string
		models []trace.Model
		policy Policy
	}{
		{"icount-2t", []trace.Model{pureALUModel(), missModel()}, nil},
		{"flushing-2t", []trace.Model{missModel(), pureALUModel()}, &flushingPolicy{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := warmedCore(tc.models, tc.policy)
			stepN(c, 5_000) // settle any remaining capacity growth
			avg := testing.AllocsPerRun(10, func() {
				stepN(c, 1_000)
			})
			if avg != 0 {
				t.Fatalf("steady-state step allocated %.2f times per 1000 committed instructions, want 0", avg)
			}
		})
	}
}

// TestArenaBoundedUnderFlushes is the squash-release regression test: a
// flush-heavy run must recycle squashed uops' arena slots once their pending
// events drain, so the live count stays bounded by the pipeline's capacity
// instead of accumulating squashed chains for the whole run.
func TestArenaBoundedUnderFlushes(t *testing.T) {
	c := New(DefaultConfig(2), []trace.Model{missModel(), missModel()}, &flushingPolicy{}, nil)
	c.Run(60_000)
	var flushes uint64
	for _, th := range c.threads {
		flushes += th.flushes
	}
	if flushes == 0 {
		t.Fatal("flush-heavy run performed no flushes; the test exercises nothing")
	}
	// Everything still alive must be reachable from a front-end queue, a ROB,
	// or a pending event; squashed-but-pinned uops are bounded by the event
	// horizon, not the run length.
	bound := len(c.threads)*c.feqCap + c.cfg.ROBSize + c.cfg.WriteBuffer + len(c.events.items)
	if live := c.arena.live(); live > bound {
		t.Fatalf("arena holds %d live slots after %d flushes, want <= %d (squashed uops are not being released)",
			live, flushes, bound)
	}
	if c.arena.allocated < 60_000 {
		t.Fatalf("arena allocated %d uops, expected at least one per committed instruction", c.arena.allocated)
	}
}

// TestSquashReleasesSlotAfterEventsDrain checks the release protocol
// directly: a squashed uop with a pending completion event keeps its slot
// until the event fires, then recycles it.
func TestSquashReleasesSlotAfterEventsDrain(t *testing.T) {
	c := New(DefaultConfig(1), []trace.Model{pureALUModel()}, nil, nil)
	u := c.arena.alloc()
	u.Tid = 0
	u.state = stateIssued
	c.events.schedule(0, 100, evComplete, u)

	freeBefore := len(c.arena.free)
	th := c.threads[0]
	c.squash(th, u, false)
	if !u.Squashed() {
		t.Fatal("squashed uop does not report Squashed")
	}
	if len(c.arena.free) != freeBefore {
		t.Fatal("slot released while a completion event still references it")
	}

	c.now = 100
	c.processEvents()
	if len(c.arena.free) != freeBefore+1 {
		t.Fatal("slot not released after the pending event drained")
	}
	if u.refs != 0 {
		t.Fatalf("refs = %d after event drain, want 0", u.refs)
	}
}

// TestEventQueueZeroesVacatedSlot is the heap-retention regression test: a
// popped event's slot in the backing array must be zeroed, otherwise the
// array pins every completed uop it ever held for the rest of the run.
func TestEventQueueZeroesVacatedSlot(t *testing.T) {
	var q eventQueue
	popped := 0
	// Spread events across both stores: near cycles take the time wheel,
	// far ones the heap.
	us := make([]*Uop, 8)
	for i := range us {
		us[i] = &Uop{ID: uint64(i)}
		q.schedule(0, int64(10+5*i), evComplete, us[i])
	}
	for now := int64(0); now <= 50; now++ {
		for {
			if _, ok := q.popIfDue(now); !ok {
				break
			}
			popped++
		}
	}
	if popped != len(us) {
		t.Fatalf("popped %d events, want %d", popped, len(us))
	}
	if len(q.items) != 0 || q.inWheel != 0 {
		t.Fatalf("queue not drained: %d heap items, %d wheel events left", len(q.items), q.inWheel)
	}
	for i, ev := range q.items[:cap(q.items)] {
		if ev.uop != nil {
			t.Fatalf("heap backing slot %d still pins uop %d after pop", i, ev.uop.ID)
		}
	}
	for w := range q.wheel {
		evs := q.wheel[w].evs
		for i, ev := range evs[:cap(evs)] {
			if ev.uop != nil {
				t.Fatalf("wheel slot %d entry %d still pins uop %d after pop", w, i, ev.uop.ID)
			}
		}
	}
}

// TestRingPopsZeroSlots verifies the ring buffers do not retain popped uops
// through their backing arrays either.
func TestRingPopsZeroSlots(t *testing.T) {
	var r uopRing
	r.reset(4)
	a, b := &Uop{ID: 1}, &Uop{ID: 2}
	r.pushBack(a)
	r.pushBack(b)
	if got := r.popFront(); got != a {
		t.Fatalf("popFront = %v, want first pushed", got)
	}
	if got := r.popBack(); got != b {
		t.Fatalf("popBack = %v, want last pushed", got)
	}
	for i, u := range r.buf {
		if u != nil {
			t.Fatalf("ring backing slot %d still pins a uop after pop", i)
		}
	}
}
