package mlp

import "slices"

// LLSR is the long-latency shift register of Section 4.2 (Figure 3).
//
// One LLSR exists per hardware thread and has as many entries as the
// thread's ROB share. On every instruction commit the register shifts one
// position from tail to head and a new bit enters at the tail: 1 if the
// committed instruction is a long-latency load, 0 otherwise. Alongside each
// bit the LLSR records the committing load's PC so the MLP distance
// predictor entry of that load can be updated when its bit reaches the head.
//
// When a 1 reaches the head, the MLP distance is the bit position of the
// last (youngest) 1 found when reading the LLSR from head to tail — i.e. the
// number of instructions one must fetch past the head load to cover every
// long-latency load that could overlap with it within one ROB worth of
// instructions. In the worked example of Figure 3 this distance is 6.
type LLSR struct {
	bits []bool
	pcs  []uint64
	head int // index of the oldest entry; the ring grows towards the tail
	n    int // number of valid entries (fills up at the start of execution)
}

// NewLLSR returns an LLSR with size entries (the paper uses ROB size divided
// by the number of threads; its characterization runs use 128).
func NewLLSR(size int) *LLSR {
	l := &LLSR{}
	l.Reset(size)
	return l
}

// Reset restores l to NewLLSR(size)'s empty state, reusing its storage when
// it is large enough.
func (l *LLSR) Reset(size int) {
	if size <= 0 {
		size = 128
	}
	*l = LLSR{bits: slices.Grow(l.bits[:0], size)[:size], pcs: slices.Grow(l.pcs[:0], size)[:size]}
	clear(l.bits)
	clear(l.pcs)
}

// Size returns the capacity of the shift register.
func (l *LLSR) Size() int { return len(l.bits) }

// Commit shifts the register and inserts the new bit at the tail. If the bit
// shifted out of the head was a 1, Commit returns that load's PC and its
// measured MLP distance (0 means no MLP: no other long-latency load within
// the register).
func (l *LLSR) Commit(longLatency bool, pc uint64) (headPC uint64, distance int, update bool) {
	if l.n < len(l.bits) {
		// Register still filling: insert at tail, nothing leaves yet.
		i := (l.head + l.n) % len(l.bits)
		l.bits[i] = longLatency
		l.pcs[i] = pc
		l.n++
		return 0, 0, false
	}
	// Full: the head entry leaves.
	outBit := l.bits[l.head]
	outPC := l.pcs[l.head]
	if outBit {
		update = true
		headPC = outPC
		distance = l.lastOneDistance()
	}
	l.bits[l.head] = longLatency
	l.pcs[l.head] = pc
	l.head = (l.head + 1) % len(l.bits)
	return headPC, distance, update
}

// lastOneDistance scans from just past the head towards the tail and returns
// the position (1-based distance from the head) of the youngest 1, or 0 if
// none is set. It is called just before the head entry is replaced, so
// position i corresponds to the instruction committed i instructions after
// the head load.
func (l *LLSR) lastOneDistance() int {
	dist := 0
	for i := 1; i < len(l.bits); i++ {
		if l.bits[(l.head+i)%len(l.bits)] {
			dist = i
		}
	}
	return dist
}

// DistancePredictor is the PC-indexed MLP distance predictor of Section 4.2:
// a last-value predictor whose entries hold the most recently observed MLP
// distance for a static long-latency load. The paper's configuration is 2K
// entries of 7 bits (distances up to the per-thread ROB share).
type DistancePredictor struct {
	dist  []uint16
	valid []bool
	max   uint16
}

// NewDistancePredictor returns a predictor with entries slots whose stored
// distances saturate at maxDistance. The paper's configuration is
// NewDistancePredictor(2048, 128).
func NewDistancePredictor(entries, maxDistance int) *DistancePredictor {
	p := &DistancePredictor{}
	p.Reset(entries, maxDistance)
	return p
}

// Reset restores p to NewDistancePredictor(entries, maxDistance)'s state,
// reusing its tables when they are large enough.
func (p *DistancePredictor) Reset(entries, maxDistance int) {
	if entries <= 0 {
		entries = 2048
	}
	if maxDistance <= 0 {
		maxDistance = 128
	}
	*p = DistancePredictor{
		dist:  slices.Grow(p.dist[:0], entries)[:entries],
		valid: slices.Grow(p.valid[:0], entries)[:entries],
		max:   uint16(maxDistance),
	}
	clear(p.dist)
	clear(p.valid)
}

// idx maps a 4-byte-aligned load PC onto the table.
func (p *DistancePredictor) idx(pc uint64) int { return int((pc >> 2) % uint64(len(p.dist))) }

// Predict returns the predicted MLP distance for the long-latency load at
// pc. Zero means "no MLP expected"; loads never seen by the trainer predict
// zero, which makes the MLP-aware policies degenerate to plain stall/flush —
// the paper's conservative default.
func (p *DistancePredictor) Predict(pc uint64) int {
	i := p.idx(pc)
	if !p.valid[i] {
		return 0
	}
	return int(p.dist[i])
}

// Update stores the distance observed by the LLSR for the load at pc.
func (p *DistancePredictor) Update(pc uint64, distance int) {
	i := p.idx(pc)
	d := uint16(distance)
	if d > p.max {
		d = p.max
	}
	p.dist[i] = d
	p.valid[i] = true
}

// BinaryPredictor is the 1-bit-per-entry MLP predictor used by the
// alternative fetch policies of Section 6.5 (alternatives c and e): each
// entry records whether MLP was observed at the previous long-latency miss
// of the same static load.
type BinaryPredictor struct {
	bit []bool
}

// NewBinaryPredictor returns a predictor with entries slots (2K in the
// paper).
func NewBinaryPredictor(entries int) *BinaryPredictor {
	p := &BinaryPredictor{}
	p.Reset(entries)
	return p
}

// Reset restores p to NewBinaryPredictor(entries)'s state, reusing its table
// when it is large enough.
func (p *BinaryPredictor) Reset(entries int) {
	if entries <= 0 {
		entries = 2048
	}
	p.bit = slices.Grow(p.bit[:0], entries)[:entries]
	clear(p.bit)
}

// Predict reports whether MLP is predicted for the long-latency load at pc.
func (p *BinaryPredictor) Predict(pc uint64) bool { return p.bit[(pc>>2)%uint64(len(p.bit))] }

// Update records whether MLP was observed for the load at pc.
func (p *BinaryPredictor) Update(pc uint64, hadMLP bool) { p.bit[(pc>>2)%uint64(len(p.bit))] = hadMLP }
