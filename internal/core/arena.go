package core

import (
	"math/bits"
	"slices"
)

// This file implements the allocation-free hot structures of the cycle
// kernel: a pooled uop arena whose slots carry the heads of the producers'
// waiter lists (event-driven wakeup), the UopSet bitmap that replaces the
// fetch policies' map-based gate sets, and the fixed-capacity ring buffers
// backing the per-thread ROB and front-end queues.
//
// Lifecycle invariants (see DESIGN.md "Cycle kernel internals"):
//
//   - A uop is allocated at fetch and released when it reaches a terminal
//     state (committed or squashed) with no remaining references. References
//     are pending events in the core's time queue plus issue-queue residency;
//     Core.freeIfDead is the single release point.
//   - A released slot's waiter list is empty: a producer's list is walked
//     and cleared when it completes or is squashed, both before release, and
//     a consumer leaves every list when its source arrives or it is squashed.
//   - Policies must drop a uop from their UopSets no later than the
//     OnLoadComplete/OnSquash hook for it; both hooks run before the uop can
//     be released, so a set never holds a recycled index.

// arenaBlockShift sizes the arena's allocation blocks (256 uops per block).
// Blocks are never reallocated, so *Uop pointers stay valid for the life of
// the core while the arena can still grow when flush-heavy phases keep many
// squashed uops alive awaiting their completion events.
const (
	arenaBlockShift = 8
	arenaBlockSize  = 1 << arenaBlockShift
	arenaBlockMask  = arenaBlockSize - 1
)

// uopArena is a pooled allocator for Uops. Steady-state simulation allocates
// nothing: slots recycle through a LIFO free list (hottest slot first, which
// keeps the working set small).
type uopArena struct {
	blocks  [][]Uop // fixed-size blocks; pointers into them are stable
	waiters []int32 // per slot: head node of its uop's waiter list, -1 when empty
	free    []int32 // LIFO free list of slot indices

	allocated uint64 // lifetime allocs (tests assert pooling works)
}

// reset empties the arena, keeping its blocks and growing it to at least
// capacity slots. The free list is rebuilt in descending slot order, so
// slots pop 0, 1, 2 and so on, exactly as a new arena hands them out while
// it grows on demand: every uop gets the slot it would on a new core.
func (a *uopArena) reset(capacity int) {
	for a.cap() < capacity {
		a.grow()
	}
	a.free = a.free[:0]
	for i := int32(a.cap()) - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
	for i := range a.waiters {
		a.waiters[i] = -1
	}
	a.allocated = 0
}

// grow adds one block of slots to the free list.
func (a *uopArena) grow() {
	base := int32(len(a.blocks) << arenaBlockShift)
	a.blocks = append(a.blocks, make([]Uop, arenaBlockSize))
	a.waiters = append(a.waiters, slices.Repeat([]int32{-1}, arenaBlockSize)...)
	// Push in reverse so the lowest index pops first.
	for i := arenaBlockSize - 1; i >= 0; i-- {
		a.free = append(a.free, base+int32(i))
	}
}

// cap returns the number of slots in the arena.
func (a *uopArena) cap() int { return len(a.blocks) << arenaBlockShift }

// live returns the number of slots currently allocated.
func (a *uopArena) live() int { return a.cap() - len(a.free) }

// at resolves a slot index to its uop.
func (a *uopArena) at(idx int32) *Uop {
	return &a.blocks[idx>>arenaBlockShift][idx&arenaBlockMask]
}

// alloc returns a fresh uop with every field zeroed and neither source
// waiting. Amortized allocation-free: it only grows the backing store when
// more uops are in flight than ever before.
func (a *uopArena) alloc() *Uop {
	if len(a.free) == 0 {
		a.grow()
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	u := a.at(idx)
	*u = Uop{arenaIdx: idx, src: unlinked}
	a.allocated++
	return u
}

// release returns u's slot to the free list. The slot's contents are left in
// place (they hold no pointers) until reuse, so in-flight checks like
// Uop.Squashed keep answering correctly for the rest of the current stage.
func (a *uopArena) release(u *Uop) {
	a.free = append(a.free, u.arenaIdx)
}

// node resolves a waiter-list node to its source link.
func (a *uopArena) node(n int32) *srcLink { return &a.at(n >> 1).src[n&1] }

// link makes source s of consumer u wait on producer p: the source's node
// joins the head of p's waiter list.
func (a *uopArena) link(p, u *Uop, s int32) {
	n := u.arenaIdx<<1 | s
	head := a.waiters[p.arenaIdx]
	u.src[s] = srcLink{prod: p.arenaIdx, prev: -1, next: head}
	if head >= 0 {
		a.node(head).prev = n
	}
	a.waiters[p.arenaIdx] = n
	u.pending++
}

// unlink takes every waiting source of u out of its producer's list; a
// squashed consumer waits on nothing.
func (a *uopArena) unlink(u *Uop) {
	for s := range u.src {
		l := &u.src[s]
		if l.prod < 0 {
			continue
		}
		if l.prev >= 0 {
			a.node(l.prev).next = l.next
		} else {
			a.waiters[l.prod] = l.next
		}
		if l.next >= 0 {
			a.node(l.next).prev = l.prev
		}
	}
	u.src = unlinked
	u.pending = 0
}

// UopSet is a bitmap set of in-flight uops keyed by arena slot, the
// allocation-free replacement for the map[*Uop]struct{} tracking sets fetch
// policies keep. Add/Remove/Contains are O(1) word operations.
//
// A set must only hold uops that are still alive: policies remove a uop no
// later than its OnLoadComplete or OnSquash hook (both run before the slot
// can be recycled). Add must not be called during ForEach.
type UopSet struct {
	a     *uopArena
	words []uint64
	n     int
}

// NewUopSet returns an empty set over the core's uop arena. Policies create
// their sets in Attach.
func (c *Core) NewUopSet() UopSet {
	return UopSet{a: c.arena, words: make([]uint64, (c.arena.cap()+63)/64)}
}

// ensure grows the word array to cover slot idx (the arena can grow mid-run).
func (s *UopSet) ensure(idx int32) {
	for int(idx>>6) >= len(s.words) {
		s.words = append(s.words, 0)
	}
}

// Add inserts u. Adding a member again is a no-op.
func (s *UopSet) Add(u *Uop) {
	idx := u.arenaIdx
	s.ensure(idx)
	w, b := idx>>6, uint64(1)<<(uint(idx)&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// Remove deletes u. Removing a non-member is a no-op.
func (s *UopSet) Remove(u *Uop) {
	idx := u.arenaIdx
	if int(idx>>6) >= len(s.words) {
		return
	}
	w, b := idx>>6, uint64(1)<<(uint(idx)&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.n--
	}
}

// Contains reports membership.
func (s *UopSet) Contains(u *Uop) bool {
	idx := u.arenaIdx
	if int(idx>>6) >= len(s.words) {
		return false
	}
	return s.words[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// Len returns the number of members.
func (s *UopSet) Len() int { return s.n }

// ForEach calls fn for every member in ascending slot order. fn may Remove
// members (including the current one) but must not Add.
func (s *UopSet) ForEach(fn func(u *Uop)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			fn(s.a.at(int32(wi<<6 + b)))
		}
	}
}

// uopRing is a fixed-capacity FIFO of uops with O(1) operations at both
// ends, backing the per-thread ROB and front-end queue. Capacity is rounded
// up to a power of two; exceeding it is a kernel bug (the dispatch and fetch
// stages enforce the architectural bounds), so push panics rather than grow.
type uopRing struct {
	buf  []*Uop
	head int
	n    int
	mask int
}

// reset empties r and sizes it to hold at least capacity uops, reusing its
// buffer when it is large enough.
func (r *uopRing) reset(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	*r = uopRing{buf: slices.Grow(r.buf[:0], size)[:size], mask: size - 1}
	clear(r.buf)
}

func (r *uopRing) len() int      { return r.n }
func (r *uopRing) empty() bool   { return r.n == 0 }
func (r *uopRing) front() *Uop   { return r.buf[r.head] }
func (r *uopRing) back() *Uop    { return r.buf[(r.head+r.n-1)&r.mask] }
func (r *uopRing) at(i int) *Uop { return r.buf[(r.head+i)&r.mask] }

func (r *uopRing) pushBack(u *Uop) {
	if r.n > r.mask {
		panic("core: ring buffer overflow")
	}
	r.buf[(r.head+r.n)&r.mask] = u
	r.n++
}

// popFront removes and returns the oldest entry, zeroing the vacated slot so
// the backing array never retains a released uop.
func (r *uopRing) popFront() *Uop {
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & r.mask
	r.n--
	return u
}

// popBack removes and returns the youngest entry, zeroing the vacated slot.
func (r *uopRing) popBack() *Uop {
	i := (r.head + r.n - 1) & r.mask
	u := r.buf[i]
	r.buf[i] = nil
	r.n--
	return u
}
