// Package bench is the SPEC CPU2000 benchmark catalog: one calibrated
// synthetic model (internal/trace) per benchmark of Table I, together with
// the two-thread workloads of Table II and the four-thread workloads of
// Table III.
//
// Calibration targets the paper's Table I characterization on the 256-entry
// ROB baseline: long-latency loads per 1K instructions (LLL), the amount of
// MLP (Chou et al. definition), the impact of MLP on performance, and the
// resulting ILP/MLP classification. Absolute agreement with SPEC is neither
// possible nor required; what matters for the paper's experiments is that
// each benchmark lands in the right class, with the right kind of miss
// structure (isolated vs clustered, prefetchable vs irregular, short vs long
// MLP distances). `go run ./cmd/repro -only table1` prints each model's
// measured characterization beside these targets, and reproduction_test.go
// checks that every benchmark lands in its class.
package bench

import (
	"fmt"
	"sort"

	"smtmlp/internal/trace"
)

// Class is the paper's benchmark classification: a benchmark is
// MLP-intensive when the measured impact of MLP on its performance exceeds
// 10% (Section 2), ILP-intensive otherwise.
type Class uint8

// Benchmark classes.
const (
	ILP Class = iota
	MLP
)

// String names the class as the paper does.
func (c Class) String() string {
	if c == MLP {
		return "MLP"
	}
	return "ILP"
}

// Benchmark couples a synthetic model with its Table I reference values.
type Benchmark struct {
	Model trace.Model
	// Paper reference values (Table I), printed beside the measured ones by
	// the table1 experiment.
	PaperLLLPer1K float64
	PaperMLP      float64
	PaperImpact   float64 // fraction, e.g. 0.6039 for mcf
	PaperClass    Class
}

// catalog lists every benchmark. Models are calibrated per Table I:
//   - bursts of independent random cold loads produce clustered misses
//     (MLP), with spacing controlling the MLP distance (Figure 4);
//   - streams produce prefetchable misses (Figure 5's big winners);
//   - chains produce serialized (no-MLP) misses;
//   - jitter makes miss patterns irregular (mcf's low predictability).
var catalog = []Benchmark{
	// --- SPECint: mostly ILP-intensive ---
	{
		Model: trace.Model{
			Name: "bzip2", Seed: 101, Sites: 160,
			LoadFrac: 0.26, StoreFrac: 0.11, BranchFrac: 0.14,
			WarmSites: 2, Bursts: 1, BurstLen: 1, BurstPeriod: 48,
			DepDist: 4, BranchRandomFrac: 0.04,
		},
		PaperLLLPer1K: 0.14, PaperMLP: 1.00, PaperImpact: 0.0003, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "crafty", Seed: 102, Sites: 160,
			LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.16,
			Bursts: 1, BurstLen: 1, BurstPeriod: 80,
			DepDist: 5, BranchRandomFrac: 0.06,
		},
		PaperLLLPer1K: 0.08, PaperMLP: 1.34, PaperImpact: 0.0129, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "eon", Seed: 103, Sites: 160,
			LoadFrac: 0.28, StoreFrac: 0.13, BranchFrac: 0.12, FPFrac: 0.25,
			DepDist: 5, BranchRandomFrac: 0.03,
		},
		PaperLLLPer1K: 0.00, PaperMLP: 1.83, PaperImpact: 0.0008, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "gap", Seed: 104, Sites: 160,
			LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.14,
			Bursts: 1, BurstLen: 1, BurstPeriod: 16,
			DepDist: 4, BranchRandomFrac: 0.05,
		},
		PaperLLLPer1K: 0.36, PaperMLP: 1.02, PaperImpact: 0.0028, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "gcc", Seed: 105, Sites: 192,
			LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.18,
			Bursts: 1, BurstLen: 2, BurstSpacing: 3, BurstPeriod: 96,
			DepDist: 4, BranchRandomFrac: 0.07,
		},
		PaperLLLPer1K: 0.01, PaperMLP: 1.70, PaperImpact: 0.0022, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "gzip", Seed: 106, Sites: 160,
			LoadFrac: 0.24, StoreFrac: 0.10, BranchFrac: 0.15,
			WarmSites: 2, Bursts: 1, BurstLen: 2, BurstSpacing: 2, BurstPeriod: 128,
			DepDist: 4, BranchRandomFrac: 0.05,
		},
		PaperLLLPer1K: 0.08, PaperMLP: 1.81, PaperImpact: 0.0322, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "mcf", Seed: 107, Sites: 192,
			LoadFrac: 0.30, StoreFrac: 0.08, BranchFrac: 0.16,
			Bursts: 1, BurstLen: 8, BurstSpacing: 14, BurstPeriod: 3,
			ChainSites: 2, ChainPeriod: 4, MissJitter: 0.08, FarUseFrac: 0.12,
			DepDist: 3, BranchRandomFrac: 0.10,
		},
		PaperLLLPer1K: 17.36, PaperMLP: 5.17, PaperImpact: 0.6039, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "parser", Seed: 108, Sites: 160,
			LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.17,
			Bursts: 1, BurstLen: 1, BurstPeriod: 48,
			DepDist: 4, BranchRandomFrac: 0.07,
		},
		PaperLLLPer1K: 0.14, PaperMLP: 1.24, PaperImpact: 0.0120, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "perlbmk", Seed: 109, Sites: 160,
			LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.16,
			Bursts: 1, BurstLen: 1, BurstPeriod: 20,
			DepDist: 4, BranchRandomFrac: 0.05,
		},
		PaperLLLPer1K: 0.30, PaperMLP: 1.00, PaperImpact: 0.0001, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "twolf", Seed: 110, Sites: 160,
			LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.15,
			Bursts: 1, BurstLen: 1, BurstPeriod: 64,
			DepDist: 4, BranchRandomFrac: 0.08,
		},
		PaperLLLPer1K: 0.10, PaperMLP: 1.37, PaperImpact: 0.0105, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "vortex", Seed: 111, Sites: 160,
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.14,
			Bursts: 1, BurstLen: 1, BurstPeriod: 16,
			DepDist: 5, BranchRandomFrac: 0.04,
		},
		PaperLLLPer1K: 0.39, PaperMLP: 1.06, PaperImpact: 0.0149, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "vpr", Seed: 112, Sites: 160,
			LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.14,
			Bursts: 1, BurstLen: 1, BurstPeriod: 64,
			DepDist: 4, BranchRandomFrac: 0.08,
		},
		PaperLLLPer1K: 0.09, PaperMLP: 1.43, PaperImpact: 0.0135, PaperClass: ILP,
	},

	// --- SPECfp: the MLP-intensive half of the suite ---
	{
		Model: trace.Model{
			Name: "ammp", Seed: 113, Sites: 192,
			LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.06, FPFrac: 0.55,
			Bursts: 1, BurstLen: 4, BurstSpacing: 16, BurstPeriod: 16,
			DepDist: 4, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 1.71, PaperMLP: 3.94, PaperImpact: 0.4025, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "applu", Seed: 114, Sites: 160,
			LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.04, FPFrac: 0.65,
			StreamSites: 14, StreamStride: 16, Bursts: 1, BurstLen: 4, BurstSpacing: 12, BurstPeriod: 3,
			DepDist: 6, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 14.24, PaperMLP: 4.26, PaperImpact: 0.6963, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "apsi", Seed: 115, Sites: 192,
			LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.05, FPFrac: 0.60,
			Bursts: 1, BurstLen: 7, BurstSpacing: 10, BurstPeriod: 40,
			DepDist: 5, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 0.78, PaperMLP: 6.15, PaperImpact: 0.3541, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "art", Seed: 116, Sites: 192,
			LoadFrac: 0.28, StoreFrac: 0.07, BranchFrac: 0.06, FPFrac: 0.55,
			ColdBytes: 16 << 20,
			Bursts:    1, BurstLen: 9, BurstSpacing: 6, BurstPeriod: 256,
			DepDist: 2, BranchRandomFrac: 0.08,
		},
		PaperLLLPer1K: 0.19, PaperMLP: 8.58, PaperImpact: 0.0734, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "equake", Seed: 117, Sites: 160,
			LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.05, FPFrac: 0.55,
			StreamSites: 10, StreamStride: 16, Bursts: 1, BurstLen: 3, BurstSpacing: 30, BurstPeriod: 2,
			DepDist: 4, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 24.60, PaperMLP: 2.69, PaperImpact: 0.5819, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "facerec", Seed: 118, Sites: 160,
			LoadFrac: 0.27, StoreFrac: 0.08, BranchFrac: 0.07, FPFrac: 0.50,
			WarmSites: 3, Bursts: 1, BurstLen: 2, BurstSpacing: 4, BurstPeriod: 64,
			DepDist: 5, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 0.41, PaperMLP: 1.51, PaperImpact: 0.0756, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "fma3d", Seed: 119, Sites: 224,
			LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.05, FPFrac: 0.60,
			Bursts: 2, BurstLen: 7, BurstSpacing: 16, BurstPeriod: 3,
			DepDist: 5, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 17.67, PaperMLP: 6.27, PaperImpact: 0.7787, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "galgel", Seed: 120, Sites: 192,
			LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.05, FPFrac: 0.65,
			Bursts: 1, BurstLen: 4, BurstSpacing: 12, BurstPeriod: 96,
			FarUseFrac: 0.06, DepDist: 6, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 0.24, PaperMLP: 3.84, PaperImpact: 0.1424, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "lucas", Seed: 121, Sites: 160,
			LoadFrac: 0.29, StoreFrac: 0.11, BranchFrac: 0.03, FPFrac: 0.70,
			StreamSites: 8, StreamStride: 16, Bursts: 1, BurstLen: 2, BurstSpacing: 12, BurstPeriod: 2,
			DepDist: 6, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 10.63, PaperMLP: 2.15, PaperImpact: 0.4640, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "mesa", Seed: 122, Sites: 160,
			LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.08, FPFrac: 0.45,
			Bursts: 1, BurstLen: 3, BurstSpacing: 8, BurstPeriod: 40,
			DepDist: 4, BranchRandomFrac: 0.03,
		},
		PaperLLLPer1K: 0.45, PaperMLP: 2.88, PaperImpact: 0.1964, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "mgrid", Seed: 123, Sites: 160,
			LoadFrac: 0.31, StoreFrac: 0.09, BranchFrac: 0.03, FPFrac: 0.65,
			StreamSites: 8, StreamStride: 16, Bursts: 1, BurstLen: 2, BurstSpacing: 5, BurstPeriod: 6,
			DepDist: 6, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 6.04, PaperMLP: 1.76, PaperImpact: 0.3584, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "sixtrack", Seed: 124, Sites: 160,
			LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.06, FPFrac: 0.60,
			Bursts: 1, BurstLen: 2, BurstSpacing: 4, BurstPeriod: 128,
			DepDist: 6, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 0.10, PaperMLP: 2.61, PaperImpact: 0.0492, PaperClass: ILP,
	},
	{
		Model: trace.Model{
			Name: "swim", Seed: 125, Sites: 160,
			LoadFrac: 0.31, StoreFrac: 0.11, BranchFrac: 0.03, FPFrac: 0.70,
			StreamSites: 14, StreamStride: 12, Bursts: 1, BurstLen: 4, BurstSpacing: 14, BurstPeriod: 2,
			DepDist: 7, BranchRandomFrac: 0.01,
		},
		PaperLLLPer1K: 15.08, PaperMLP: 3.66, PaperImpact: 0.6747, PaperClass: MLP,
	},
	{
		Model: trace.Model{
			Name: "wupwise", Seed: 126, Sites: 160,
			LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.05, FPFrac: 0.60,
			Bursts: 1, BurstLen: 3, BurstSpacing: 14, BurstPeriod: 14,
			WarmSites: 2, DepDist: 5, BranchRandomFrac: 0.02,
		},
		PaperLLLPer1K: 2.00, PaperMLP: 2.20, PaperImpact: 0.3681, PaperClass: MLP,
	},
}

var byName = func() map[string]*Benchmark {
	m := make(map[string]*Benchmark, len(catalog))
	for i := range catalog {
		m[catalog[i].Model.Name] = &catalog[i]
	}
	return m
}()

// Names returns all benchmark names in Table I order.
func Names() []string {
	out := make([]string, len(catalog))
	for i := range catalog {
		out[i] = catalog[i].Model.Name
	}
	return out
}

// Get returns the benchmark named name.
func Get(name string) (Benchmark, error) {
	b, ok := byName[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q (known: %v)", name, Names())
	}
	return *b, nil
}

// MustGet is Get for callers with static names; it panics on unknown names.
func MustGet(name string) Benchmark {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// All returns the full catalog in Table I order.
func All() []Benchmark {
	out := make([]Benchmark, len(catalog))
	copy(out, catalog)
	return out
}

// MostMLPIntensive returns the n benchmarks with the highest paper MLP
// impact, in decreasing order (Figure 4 uses the top six).
func MostMLPIntensive(n int) []string {
	all := All()
	sort.Slice(all, func(i, j int) bool { return all[i].PaperImpact > all[j].PaperImpact })
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].Model.Name
	}
	return out
}
