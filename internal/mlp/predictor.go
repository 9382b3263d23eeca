// Package mlp implements the memory-level-parallelism machinery that is the
// paper's contribution (Sections 4.1 and 4.2):
//
//   - a long-latency load predictor using the miss-pattern scheme of
//     Limousin et al. (a last-value predictor for the number of hits between
//     two long-latency misses of the same static load, 2K entries x 6 bits);
//   - the long-latency shift register (LLSR), a per-thread bit history of
//     committed instructions used to measure MLP distances at commit time;
//   - the MLP distance predictor (2K entries x 7 bits, last-value), which
//     predicts how far down the dynamic instruction stream fetch must
//     continue past a long-latency load to expose the maximum MLP the ROB
//     can exploit;
//   - a binary MLP predictor (2K entries x 1 bit) used by the alternative
//     fetch policies of Section 6.5.
//
// All predictor tables are indexed by load PC, one instance per hardware
// thread, exactly as the paper assumes.
package mlp

import "slices"

// MissPatternPredictor predicts, in the processor front end, whether a load
// is going to be a long-latency load (an L3 or D-TLB miss).
//
// Each entry records the number of hits by the same static load between the
// two most recent long-latency misses, and the number of hits since the last
// long-latency miss. When the latter reaches the former, the next execution
// of the load is predicted long-latency. Entries saturate at 2^bits - 1 hits
// (6 bits in the paper, total cost 12Kbits for 2K entries).
type MissPatternPredictor struct {
	period []uint16 // hits observed between the last two LLL misses
	count  []uint16 // hits since the last LLL miss
	valid  []bool
	max    uint16

	// Statistics (counted at update time, against the prediction that the
	// front end would have made for this execution).
	Predictions     uint64 // loads seen
	Correct         uint64 // correct hit/miss predictions
	Misses          uint64 // actual long-latency loads seen
	MissesPredicted uint64 // actual LLLs that were predicted as LLLs
}

// NewMissPatternPredictor returns a predictor with entries table slots and
// counters of the given bit width. The paper's configuration is
// NewMissPatternPredictor(2048, 6).
func NewMissPatternPredictor(entries, bits int) *MissPatternPredictor {
	p := &MissPatternPredictor{}
	p.Reset(entries, bits)
	return p
}

// Reset restores p to NewMissPatternPredictor(entries, bits)'s state,
// reusing its tables when they are large enough.
func (p *MissPatternPredictor) Reset(entries, bits int) {
	if entries <= 0 {
		entries = 2048
	}
	if bits <= 0 || bits > 15 {
		bits = 6
	}
	*p = MissPatternPredictor{
		period: slices.Grow(p.period[:0], entries)[:entries],
		count:  slices.Grow(p.count[:0], entries)[:entries],
		valid:  slices.Grow(p.valid[:0], entries)[:entries],
		max:    uint16(1)<<uint(bits) - 1,
	}
	clear(p.period)
	clear(p.count)
	clear(p.valid)
}

// idx maps a 4-byte-aligned load PC onto the table.
func (p *MissPatternPredictor) idx(pc uint64) int { return int((pc >> 2) % uint64(len(p.period))) }

// Predict reports whether the next execution of the load at pc is predicted
// to be a long-latency load: exactly when the number of hits since the last
// long-latency miss equals the recorded hit count between the two most
// recent misses (the paper's wording is "in case the latter matches the
// former"). The equality test matters: a load whose misses stop recurring
// (for example because the prefetcher now covers it) overshoots its recorded
// period and stops being predicted long-latency, instead of sticking at a
// stale miss prediction forever.
//
// Predict does not modify predictor state and may be called from the front
// end at every fetch of the load.
func (p *MissPatternPredictor) Predict(pc uint64) bool {
	i := p.idx(pc)
	return p.valid[i] && p.count[i] == p.period[i]
}

// Update trains the predictor with the actual outcome of an executed load at
// pc and returns what the predictor would have predicted for it (so callers
// can account accuracy without a separate Predict call).
func (p *MissPatternPredictor) Update(pc uint64, longLatency bool) (predicted bool) {
	i := p.idx(pc)
	predicted = p.valid[i] && p.count[i] == p.period[i]

	p.Predictions++
	if predicted == longLatency {
		p.Correct++
	}
	if longLatency {
		p.Misses++
		if predicted {
			p.MissesPredicted++
		}
	}

	if longLatency {
		p.period[i] = p.count[i]
		p.count[i] = 0
		p.valid[i] = true
	} else if p.count[i] < p.max {
		p.count[i]++
	}
	return predicted
}

// Accuracy returns the fraction of correct hit/miss predictions per load
// (Figure 6's metric), or 1 when no loads have been observed.
func (p *MissPatternPredictor) Accuracy() float64 {
	if p.Predictions == 0 {
		return 1
	}
	return float64(p.Correct) / float64(p.Predictions)
}

// MissCoverage returns the fraction of actual long-latency loads that were
// predicted long-latency (the secondary metric discussed with Figure 6).
func (p *MissPatternPredictor) MissCoverage() float64 {
	if p.Misses == 0 {
		return 1
	}
	return float64(p.MissesPredicted) / float64(p.Misses)
}
