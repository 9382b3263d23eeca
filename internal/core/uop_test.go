package core

import (
	"testing"

	"smtmlp/internal/isa"
)

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	u := &Uop{}
	q.schedule(0, 30, evComplete, u)
	q.schedule(0, 10, evComplete, u)
	q.schedule(0, 20, evDetectLLL, u)

	if c, ok := q.peekCycle(0); !ok || c != 10 {
		t.Fatalf("peek = %d/%t, want 10/true", c, ok)
	}
	var got []int64
	for now := int64(0); now <= 30; now++ {
		for {
			ev, ok := q.popIfDue(now)
			if !ok {
				break
			}
			got = append(got, ev.cycle)
		}
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestEventQueueStableTieBreak(t *testing.T) {
	// Events scheduled for the same cycle pop in insertion order, which
	// keeps the simulator deterministic.
	var q eventQueue
	a, b, c := &Uop{ID: 1}, &Uop{ID: 2}, &Uop{ID: 3}
	q.schedule(0, 5, evComplete, a)
	q.schedule(0, 5, evComplete, b)
	q.schedule(0, 5, evComplete, c)
	var order []uint64
	for {
		ev, ok := q.popIfDue(5)
		if !ok {
			break
		}
		order = append(order, ev.uop.ID)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("same-cycle order %v, want [1 2 3]", order)
	}
}

func TestEventQueuePopNotDue(t *testing.T) {
	var q eventQueue
	q.schedule(0, 100, evComplete, &Uop{})
	if _, ok := q.popIfDue(99); ok {
		t.Fatal("popped an event before its cycle")
	}
	if _, ok := q.popIfDue(100); !ok {
		t.Fatal("did not pop a due event")
	}
	if _, ok := q.peekCycle(100); ok {
		t.Fatal("empty queue peeked a cycle")
	}
}

func TestUopAccessors(t *testing.T) {
	u := &Uop{In: isa.Instr{Seq: 42, Class: isa.Load}}
	if u.Seq() != 42 {
		t.Fatalf("Seq() = %d", u.Seq())
	}
	if u.Squashed() || u.Done() {
		t.Fatal("fresh uop reports terminal state")
	}
	u.state = stateDone
	if !u.Done() {
		t.Fatal("done uop not Done()")
	}
	u.state = stateSquashed
	if !u.Squashed() {
		t.Fatal("squashed uop not Squashed()")
	}
}

func TestExecLatencies(t *testing.T) {
	if execLatency(isa.IntALU) != 1 || execLatency(isa.Branch) != 1 {
		t.Fatal("single-cycle classes wrong")
	}
	if execLatency(isa.IntMul) != 3 {
		t.Fatal("IntMul latency wrong")
	}
	if execLatency(isa.FPALU) != 4 || execLatency(isa.FPMul) != 6 {
		t.Fatal("FP latencies wrong")
	}
}
