// Package bpred implements the branch prediction hardware of the baseline
// SMT processor of Table IV: a 2K-entry gshare direction predictor and a
// 256-entry 4-way set-associative branch target buffer (BTB).
//
// The simulator is trace driven, so wrong-path instructions are never
// executed; a misprediction instead gates the thread's fetch until the branch
// resolves (see internal/core). The predictor still matters a great deal:
// per-thread misprediction rates shape how much fetch bandwidth each thread
// can use and therefore how the fetch policies interact.
package bpred

import "slices"

// Config sizes the predictor. The zero value is not useful; use
// DefaultConfig for the paper's baseline.
type Config struct {
	GshareEntries int `json:"gshare_entries"` // number of 2-bit counters (power of two)
	HistoryBits   int `json:"history_bits"`   // global history length
	BTBEntries    int `json:"btb_entries"`    // total BTB entries (power of two)
	BTBWays       int `json:"btb_ways"`       // BTB associativity
}

// DefaultConfig returns the Table IV branch predictor: 2K-entry gshare and a
// 256-entry, 4-way set-associative BTB. The history length is shorter than
// log2(entries) to limit table dilution from hard-to-predict branches, which
// matters because the synthetic workloads concentrate their branches on few
// static sites; eight bits still captures the loop patterns the workload
// models emit.
func DefaultConfig() Config {
	return Config{GshareEntries: 2048, HistoryBits: 8, BTBEntries: 256, BTBWays: 4}
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is a gshare + BTB branch predictor for a single hardware thread.
// Each SMT context owns one Predictor (SMTSIM keeps per-thread history).
type Predictor struct {
	cfg     Config
	table   []uint8 // 2-bit saturating counters
	history uint64
	histMax uint64
	btb     []btbEntry // btbSets sets of cfg.BTBWays ways each, set by set
	btbSets int
	tick    uint64

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor sized by cfg with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	p := &Predictor{}
	p.Reset(cfg)
	return p
}

// Reset restores p to New(cfg)'s state: untrained counters, empty history
// and BTB, zero statistics. It reuses p's tables when they are large enough.
func (p *Predictor) Reset(cfg Config) {
	if cfg.GshareEntries <= 0 || cfg.BTBEntries <= 0 || cfg.BTBWays <= 0 {
		cfg = DefaultConfig()
	}
	sets := cfg.BTBEntries / cfg.BTBWays
	if sets < 1 {
		sets = 1
	}
	*p = Predictor{
		cfg:     cfg,
		table:   slices.Grow(p.table[:0], cfg.GshareEntries)[:cfg.GshareEntries],
		histMax: (uint64(1) << uint(cfg.HistoryBits)) - 1,
		btb:     slices.Grow(p.btb[:0], sets*cfg.BTBWays)[:sets*cfg.BTBWays],
		btbSets: sets,
	}
	clear(p.table)
	clear(p.btb)
}

// btbSet returns the ways of the BTB set pc maps to.
func (p *Predictor) btbSet(pc uint64) []btbEntry {
	i := int(pc%uint64(p.btbSets)) * p.cfg.BTBWays
	return p.btb[i : i+p.cfg.BTBWays]
}

func (p *Predictor) index(pc uint64) int {
	// Instructions are 4-byte aligned; drop the always-zero low bits so the
	// whole table is usable.
	return int(((pc >> 2) ^ p.history) % uint64(len(p.table)))
}

// Predict returns the predicted direction and target for the branch at pc.
// A taken prediction with no BTB target (or a stale target) behaves as a
// misprediction from the pipeline's point of view; callers compare the
// returned values against the actual outcome.
func (p *Predictor) Predict(pc uint64) (taken bool, target uint64, targetValid bool) {
	taken = p.table[p.index(pc)] >= 2
	set := p.btbSet(pc)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == pc {
			return taken, e.target, true
		}
	}
	return taken, 0, false
}

// Resolve updates the predictor with the actual outcome of the branch at pc
// and reports whether the earlier prediction would have been a misprediction.
// The update models resolution at execute: direction counters, global
// history, and the BTB entry (for taken branches) are all updated.
func (p *Predictor) Resolve(pc uint64, taken bool, target uint64) (mispredicted bool) {
	p.Lookups++
	predTaken, predTarget, tvalid := p.Predict(pc)
	mispredicted = predTaken != taken || (taken && (!tvalid || predTarget != target))

	// Direction counter update.
	idx := p.index(pc)
	c := p.table[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.table[idx] = c

	// History update (speculative history repair is folded into resolution in
	// this trace-driven model).
	p.history = ((p.history << 1) | boolBit(taken)) & p.histMax

	// BTB allocation/update for taken branches.
	if taken {
		p.tick++
		set := p.btbSet(pc)
		victim := 0
		var oldest uint64 = ^uint64(0)
		for i := range set {
			e := &set[i]
			if e.valid && e.tag == pc {
				victim = i
				oldest = 0
				break
			}
			if !e.valid {
				victim, oldest = i, 0
				break
			}
			if e.lru < oldest {
				victim, oldest = i, e.lru
			}
		}
		set[victim] = btbEntry{valid: true, tag: pc, target: target, lru: p.tick}
	}

	if mispredicted {
		p.Mispredicts++
	}
	return mispredicted
}

// ResetStats zeroes the accuracy counters while keeping the trained tables
// (warm-up support).
func (p *Predictor) ResetStats() { p.Lookups, p.Mispredicts = 0, 0 }

// MispredictRate returns the fraction of resolved branches that were
// mispredicted, or 0 if no branches have resolved.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
