package main

import (
	"math/rand/v2"
	"slices"
	"strings"

	"smtmlp"
	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
)

// Every input the program sees is generated here from the run's seed and
// handed over explicitly (explicit mixes, never campaign.Generated), so the
// same seed always gives the same specs, requests and schedules.

// Budgets per workload. Cells at these budgets take a few to a few tens of
// milliseconds each (see README.md, "Sizing"), so a run holds hundreds to
// thousands of them.
const (
	sweepInstructions = 5000
	priorInstructions = 3000 // the earlier campaign: disjoint fingerprints and references
	serveInstructions = 5000
	fleetInstructions = 2000
	// probeInstructions sizes the fleet's one-cell latency probes so that
	// simulating the cell, not the handful of process wake-ups around it,
	// is most of a probe: at 2,000 instructions the wake-ups were most of it
	// and the latency moved with host scheduling noise far more than the
	// throughput did.
	probeInstructions = 10000
)

// Streams separate the seed's uses, so adding a draw to one input never
// shifts another.
const (
	streamSweep = iota + 1
	streamPrior
	streamServe
	streamFleet
	streamProbe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// classPools splits the catalog by the paper's ILP/MLP classification.
func classPools() (ilp, mlp []string) {
	for _, b := range bench.All() {
		if b.PaperClass == bench.MLP {
			mlp = append(mlp, b.Model.Name)
		} else {
			ilp = append(ilp, b.Model.Name)
		}
	}
	return ilp, mlp
}

// drawMix draws `threads` distinct benchmarks of the class ("ilp", "mlp" or
// "mixed": at least one of each).
func drawMix(r *rand.Rand, class string, threads int) []string {
	ilp, mlp := classPools()
	var pool []string
	var mix []string
	switch class {
	case "ilp":
		pool = ilp
	case "mlp":
		pool = mlp
	default:
		mix = append(mix, ilp[r.IntN(len(ilp))], mlp[r.IntN(len(mlp))])
		pool = append(append([]string(nil), ilp...), mlp...)
	}
	for len(mix) < threads {
		b := pool[r.IntN(len(pool))]
		if !slices.Contains(mix, b) {
			mix = append(mix, b)
		}
	}
	r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// drawMixes returns perClass distinct mixes for every class at each thread
// count, class by class: the same shape for every seed, so runs of different
// seeds do comparable work.
func drawMixes(r *rand.Rand, perClass map[int]int, seen map[string]bool) [][]string {
	var out [][]string
	for _, threads := range []int{2, 4} {
		for _, class := range []string{"ilp", "mlp", "mixed"} {
			for n := 0; n < perClass[threads]; {
				m := drawMix(r, class, threads)
				key := strings.Join(m, "-")
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, m)
				n++
			}
		}
	}
	return out
}

func paperPolicies() []string {
	var names []string
	for _, p := range smtmlp.Policies() {
		names = append(names, p.String())
	}
	return names
}

// sweepSpecs returns the timed sweep campaign and the earlier, disjoint
// campaign its store already holds. The earlier one runs at another budget,
// so none of its results or references serve the timed campaign.
func sweepSpecs(seed uint64) (timed, prior campaign.Spec) {
	timed = campaign.Spec{
		Name:         "perfbench-sweep",
		Instructions: sweepInstructions,
		Policies:     paperPolicies(),
		Workloads: campaign.WorkloadSpec{
			Mixes: drawMixes(newRand(seed, streamSweep), map[int]int{2: 6, 4: 3}, map[string]bool{}),
		},
	}
	prior = campaign.Spec{
		Name:         "perfbench-prior",
		Instructions: priorInstructions,
		Policies:     paperPolicies(),
		Workloads: campaign.WorkloadSpec{
			Mixes: drawMixes(newRand(seed, streamPrior), map[int]int{2: 3, 4: 1}, map[string]bool{}),
		},
	}
	return timed, prior
}

// fleetSpec is sweep-shaped at a small budget.
func fleetSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Name:         "perfbench-fleet",
		Instructions: fleetInstructions,
		Policies:     paperPolicies(),
		Workloads: campaign.WorkloadSpec{
			Mixes: drawMixes(newRand(seed, streamFleet), map[int]int{2: 48, 4: 16}, map[string]bool{}),
		},
	}
}

// probeSpecs are one-cell campaigns for the fleet's run latency: every
// Table II workload under every paper policy, in an order the seed shuffles.
// Each probe is a distinct cell, so each dispatches a lease, and the set is
// the same for every seed, so the latency percentiles do not depend on which
// cells a seed happens to draw.
func probeSpecs(seed uint64) []campaign.Spec {
	var out []campaign.Spec
	for _, w := range smtmlp.TwoThreadWorkloads() {
		for _, p := range paperPolicies() {
			out = append(out, campaign.Spec{
				Name:         "perfbench-probe",
				Instructions: probeInstructions,
				Policies:     []string{p},
				Workloads:    campaign.WorkloadSpec{Mixes: [][]string{w.Benchmarks}},
			})
		}
	}
	r := newRand(seed, streamProbe)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runCall is one /v1/run request of the serve pool.
type runCall struct {
	Benchmarks    []string `json:"benchmarks"`
	Policy        string   `json:"policy"`
	TraceInterval int64    `json:"trace_interval,omitempty"`
}

// batchCall is one /v1/batch cross-product of the serve pool.
type batchCall struct {
	Workloads [][]string `json:"workloads"`
	Policies  []string   `json:"policies"`
}

// Serve batch shape and the share of /v1/run requests that ask for interval
// traces.
const (
	tracedShare    = 0.25
	traceInterval  = 100
	batchWorkloads = 4
	batchPolicies  = 3
)

// servePool builds the finite request pool of the serve workload from the
// policy names the service lists in GET /v1/policies. Both pools hold every
// Table II workload under every listed policy, the same cells for every
// seed, so that seeds do comparable work and the metrics do not depend on
// which cells a seed draws. The /v1/run pool is in an order the seed
// shuffles, with a seeded tracedShare of it asking for traces. The /v1/batch
// pool splits the same cells into cross-products of batchWorkloads
// workloads and batchPolicies policies, grouped and ordered by the seed.
func servePool(seed uint64, policies []string) (runs []runCall, batches []batchCall) {
	r := newRand(seed, streamServe)
	workloads := smtmlp.TwoThreadWorkloads()
	for _, w := range workloads {
		for _, p := range policies {
			runs = append(runs, runCall{Benchmarks: w.Benchmarks, Policy: p})
		}
	}
	r.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	for _, i := range r.Perm(len(runs))[:int(tracedShare*float64(len(runs)))] {
		runs[i].TraceInterval = traceInterval
	}
	wperm, pperm := r.Perm(len(workloads)), r.Perm(len(policies))
	for lo := 0; lo < len(wperm); lo += batchWorkloads {
		var ws [][]string
		for _, i := range wperm[lo:min(lo+batchWorkloads, len(wperm))] {
			ws = append(ws, workloads[i].Benchmarks)
		}
		for plo := 0; plo < len(pperm); plo += batchPolicies {
			var ps []string
			for _, i := range pperm[plo:min(plo+batchPolicies, len(pperm))] {
				ps = append(ps, policies[i])
			}
			batches = append(batches, batchCall{Workloads: ws, Policies: ps})
		}
	}
	r.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	return runs, batches
}
