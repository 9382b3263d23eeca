package mem

// mshrTable tracks in-flight memory fills: cache line number -> cycle the
// fill completes. It replaces a map[uint64]int64 on the simulator's hot path
// with a small open-addressed table (linear probing, Fibonacci hashing).
// Entries whose ready cycle has passed are semantically dead — lookups treat
// them as absent — and are dropped wholesale when the table compacts, so the
// table never needs per-entry deletion or tombstones.
type mshrTable struct {
	lines []uint64 // mshrEmpty marks a free slot
	ready []int64
	used  int // occupied slots, live or expired
	shift uint

	// Spare arrays reused by same-size compactions, so dropping expired
	// entries allocates nothing in steady state.
	spareLines []uint64
	spareReady []int64
}

// mshrEmpty is an impossible line number ((2^64-1) >> lineShift can never
// reach it for any lineShift >= 1).
const mshrEmpty = ^uint64(0)

// reset empties the table, giving a new one 256 slots. A table that grew
// keeps its size: lookups do not depend on the layout.
func (t *mshrTable) reset() {
	if t.lines == nil {
		const size = 256
		*t = mshrTable{shift: 64}
		for s := 1; s < size; s <<= 1 {
			t.shift--
		}
		t.lines = make([]uint64, size)
		t.ready = make([]int64, size)
		t.spareLines = make([]uint64, size)
		t.spareReady = make([]int64, size)
	}
	for i := range t.lines {
		t.lines[i] = mshrEmpty
	}
	t.used = 0
}

func (t *mshrTable) slot(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the fill-complete cycle registered for line, if any. Expired
// entries are still returned; callers compare against now (matching the old
// map semantics, where inFlight checked ready > now).
func (t *mshrTable) get(line uint64) (int64, bool) {
	mask := len(t.lines) - 1
	for i := t.slot(line); ; i = (i + 1) & mask {
		switch t.lines[i] {
		case line:
			return t.ready[i], true
		case mshrEmpty:
			return 0, false
		}
	}
}

// set registers (or refreshes) the fill-complete cycle for line. now lets a
// full table compact away expired entries instead of growing.
func (t *mshrTable) set(line uint64, ready, now int64) {
	if t.used*4 >= len(t.lines)*3 {
		t.compact(now)
	}
	mask := len(t.lines) - 1
	for i := t.slot(line); ; i = (i + 1) & mask {
		switch t.lines[i] {
		case line:
			t.ready[i] = ready
			return
		case mshrEmpty:
			t.lines[i] = line
			t.ready[i] = ready
			t.used++
			return
		}
	}
}

// compact rebuilds the table keeping only in-flight entries (ready > now),
// doubling the size if the live set alone would keep the load factor high.
func (t *mshrTable) compact(now int64) {
	live := 0
	for i, l := range t.lines {
		if l != mshrEmpty && t.ready[i] > now {
			live++
		}
	}
	size := len(t.lines)
	for live*2 >= size {
		size <<= 1
	}
	oldLines, oldReady := t.lines, t.ready
	if size == len(oldLines) {
		t.lines, t.spareLines = t.spareLines, nil
		t.ready, t.spareReady = t.spareReady, nil
	} else {
		t.lines = make([]uint64, size)
		t.ready = make([]int64, size)
		t.spareLines, t.spareReady = nil, nil
	}
	t.shift = 64
	for s := 1; s < size; s <<= 1 {
		t.shift--
	}
	for i := range t.lines {
		t.lines[i] = mshrEmpty
	}
	t.used = 0
	mask := size - 1
	for i, l := range oldLines {
		if l == mshrEmpty || oldReady[i] <= now {
			continue
		}
		for j := t.slot(l); ; j = (j + 1) & mask {
			if t.lines[j] == mshrEmpty {
				t.lines[j] = l
				t.ready[j] = oldReady[i]
				t.used++
				break
			}
		}
	}
	if size == len(oldLines) {
		// The old arrays become the next compaction's spares.
		t.spareLines, t.spareReady = oldLines, oldReady
	} else {
		t.spareLines = make([]uint64, size)
		t.spareReady = make([]int64, size)
	}
}
