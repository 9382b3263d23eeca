package core

import (
	"math"

	"smtmlp/internal/isa"
	"smtmlp/internal/mem"
)

// uopState tracks a micro-op through the pipeline.
type uopState uint8

const (
	stateFetched    uopState = iota // in the front-end queue
	stateDispatched                 // in ROB + issue queue, waiting for operands
	stateIssued                     // executing
	stateDone                       // completed, waiting to commit
	stateSquashed                   // flushed
	stateCommitted                  // retired (stores may still hold a write-buffer entry)
)

// Uop is one in-flight micro-operation. Policies receive *Uop in their hooks
// and may read any exported field; they must not mutate them.
//
// Uops live in the core's pooled arena: they are allocated at fetch and
// recycled at commit or squash once no event or issue-queue reference
// remains, so steady-state simulation performs no per-instruction heap
// allocation. Operand wakeup is producer-driven: at dispatch each source
// still waiting on an in-flight producer is linked into that producer's
// waiter list (see arena.go), and the producer's completion or squash walks
// the list once, moving consumers whose last source arrived onto a ready list.
type Uop struct {
	In  isa.Instr
	Tid int
	ID  uint64 // global age: smaller is older across all threads

	state     uopState
	fetchedAt int64
	arenaIdx  int32 // slot in the core's uop arena
	refs      int32 // pending events + issue-queue residency pinning the slot

	// Wakeup state, set at dispatch: dseq is the issue queues' age order,
	// pending counts the sources still waiting on an in-flight producer, and
	// src holds each source's node in its producer's waiter list.
	dseq    uint64
	pending int32
	src     [2]srcLink

	// Branch bookkeeping (filled at fetch).
	Mispredicted bool

	// Load bookkeeping.
	Access       mem.Access // valid once issued (Load) or committed (Store)
	IsLLL        bool       // long-latency load (valid once issued)
	PredictedLLL bool       // front-end miss-pattern prediction at fetch
}

// Seq returns the per-thread dynamic sequence number.
func (u *Uop) Seq() uint64 { return u.In.Seq }

// Squashed reports whether the uop has been flushed. Policies use this to
// drop stale entries from their tracking sets.
func (u *Uop) Squashed() bool { return u.state == stateSquashed }

// Done reports whether the uop has finished executing.
func (u *Uop) Done() bool { return u.state == stateDone }

// srcLink is one source operand's node in its producer's waiter list, a
// doubly linked list threaded through the consumers' uops. A node is named
// consumer slot<<1 | source index; -1 ends a list.
type srcLink struct {
	prod       int32 // producer's arena slot; -1 when the source is not waiting
	prev, next int32 // neighbouring nodes in the producer's list
}

// unlinked is the state of both sources of a uop that waits on nothing.
var unlinked = [2]srcLink{{-1, -1, -1}, {-1, -1, -1}}

// event kinds processed by the core's time queue.
type eventKind uint8

const (
	evComplete        eventKind = iota // functional unit / memory completion
	evDetectLLL                        // long-latency miss detected (policy hook)
	evWriteBufferFree                  // committed store left the write buffer
)

type event struct {
	cycle int64
	seq   uint64 // tie-break for deterministic ordering
	kind  eventKind
	uop   *Uop
}

// evHorizon is the time-wheel span: events due within the next evHorizon-1
// cycles go to O(1) per-cycle buckets (nearly all events — functional unit
// latencies and L1/L2 hits are short); only distant completions (L3 and
// memory misses) pay for the heap.
const evHorizon = 16

// evBucket holds the events of one wheel slot, drained through a head index
// with vacated entries zeroed (no retention through the backing array).
type evBucket struct {
	evs  []event
	head int
}

// eventQueue is a deterministic event scheduler: a 16-slot time wheel in
// front of a hand-rolled min-heap ordered by (cycle, insertion seq). Neither
// path boxes events through an interface (container/heap's Push/Pop
// allocate per call), and steady-state scheduling allocates nothing.
//
// Determinism: events must pop in (cycle, seq) order. Within a wheel bucket,
// append order is seq order. Across the two stores, any heap event due at
// cycle X was scheduled at least evHorizon cycles before X, while every
// bucket event for X was scheduled later than that — so all heap events for
// a cycle carry smaller seqs than all bucket events for it, and draining the
// heap first preserves the global order.
type eventQueue struct {
	items   []event // far events (>= evHorizon ahead): min-heap
	nseq    uint64
	wheel   [evHorizon]evBucket
	inWheel int
}

// reset drops every pending event, keeping the heap's and the buckets'
// backing arrays (cleared, so they pin no uop).
func (q *eventQueue) reset() {
	clear(q.items)
	old := *q
	*q = eventQueue{items: old.items[:0]}
	for i, b := range old.wheel {
		clear(b.evs)
		q.wheel[i].evs = b.evs[:0]
	}
}

func (q *eventQueue) less(i, j int) bool {
	if q.items[i].cycle != q.items[j].cycle {
		return q.items[i].cycle < q.items[j].cycle
	}
	return q.items[i].seq < q.items[j].seq
}

// schedule enqueues an event for u at the given cycle (strictly after now)
// and pins u's arena slot until the event is popped.
func (q *eventQueue) schedule(now, cycle int64, kind eventKind, u *Uop) {
	q.nseq++
	u.refs++
	ev := event{cycle: cycle, seq: q.nseq, kind: kind, uop: u}
	if d := cycle - now; d > 0 && d < evHorizon {
		b := &q.wheel[cycle&(evHorizon-1)]
		b.evs = append(b.evs, ev)
		q.inWheel++
		return
	}
	q.items = append(q.items, ev)
	// Sift up.
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// peekCycle returns the cycle of the earliest pending event strictly after
// now (idle-skip callers have already drained everything due), or false when
// no event is pending.
func (q *eventQueue) peekCycle(now int64) (int64, bool) {
	best := int64(math.MaxInt64)
	if len(q.items) > 0 {
		best = q.items[0].cycle
	}
	if q.inWheel > 0 {
		for d := int64(1); d < evHorizon; d++ {
			b := &q.wheel[(now+d)&(evHorizon-1)]
			if b.head < len(b.evs) {
				if now+d < best {
					best = now + d
				}
				break
			}
		}
	}
	if best == math.MaxInt64 {
		return 0, false
	}
	return best, true
}

// popIfDue removes and returns the earliest event if it is due at now.
// Vacated slots (heap tail, bucket entries) are zeroed so backing arrays
// never retain a completed uop for the rest of the run. The caller owns the
// popped event's reference and must unpin it (Core.processEvents does).
func (q *eventQueue) popIfDue(now int64) (event, bool) {
	if n := len(q.items) - 1; n >= 0 && q.items[0].cycle <= now {
		ev := q.items[0]
		q.items[0] = q.items[n]
		q.items[n] = event{} // zero the vacated slot: no retention
		q.items = q.items[:n]
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < n && q.less(l, smallest) {
				smallest = l
			}
			if r < n && q.less(r, smallest) {
				smallest = r
			}
			if smallest == i {
				break
			}
			q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
			i = smallest
		}
		return ev, true
	}
	if q.inWheel > 0 {
		// Every event in this wheel slot is due exactly at now: with a
		// horizon under 16 cycles, no two pending cycles share a slot.
		b := &q.wheel[now&(evHorizon-1)]
		if b.head < len(b.evs) {
			ev := b.evs[b.head]
			b.evs[b.head] = event{} // zero: no retention
			b.head++
			if b.head == len(b.evs) {
				b.evs = b.evs[:0]
				b.head = 0
			}
			q.inWheel--
			return ev, true
		}
	}
	return event{}, false
}
