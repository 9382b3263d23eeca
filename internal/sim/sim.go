// Package sim drives simulations for the experiment harness: it builds
// cores from benchmark names, runs single-threaded reference simulations
// with CPI checkpoint profiles, runs multiprogrammed workloads under the
// paper's stopping rule, and computes STP/ANTT following the paper's
// methodology ("the single-threaded CPI_ST used in the formulas then equals
// single-threaded CPI after x_i million instructions").
//
// A Runner draws single-threaded reference profiles from a RefCache — a
// concurrency-safe, size-bounded cache keyed by benchmark, budget and a full
// configuration hash — which may be private to the Runner or shared between
// any number of concurrent Runners (the public smtmlp.Engine shares one per
// engine, or across engines via smtmlp.WithCache).
//
// A Runner has four entry points, all context-first: RunSingleCtx (one
// benchmark alone, returning the core for predictor inspection),
// STReferenceCtx (a cached single-threaded reference profile),
// RunWorkloadCtx (one multiprogram BatchRequest with STP/ANTT) and RunBatch
// (many BatchRequests, streamed). All fan-out — RunBatch and the
// characterization experiments alike — goes through ForEach, the one
// bounded worker pool with context cancellation; each simulation itself is
// single-threaded and deterministic. References and multiprogram cells run
// on cores recycled through one process-wide pool (see runRecycled).
package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/metrics"
	"smtmlp/internal/policy"
	"smtmlp/internal/trace"
)

// Params bundles the knobs shared by all experiments.
type Params struct {
	// Instructions is the per-thread instruction budget: multiprogram runs
	// stop when the first thread commits this many (the paper uses 200M
	// SimPoints; the harness defaults to a laptop-scale budget).
	Instructions uint64

	// Warmup is the number of instructions executed before statistics are
	// reset (SimPoint-style warm-up: caches, TLBs and predictors train;
	// compulsory misses fall outside the measurement). 0 means
	// Instructions/4.
	Warmup uint64

	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int

	// TraceInterval, when > 0, enables the core's interval-trace recorder on
	// single and multiprogram runs: one per-thread sample every TraceInterval
	// cycles, carried on core.Result.Intervals. Single-threaded reference
	// runs never trace — their results are cached and persisted under keys
	// that deliberately exclude this knob, so reference bytes are identical
	// whether or not a caller asked for traces.
	TraceInterval int64
}

// DefaultParams returns the harness defaults.
func DefaultParams() Params {
	return Params{Instructions: 300_000}
}

// EffectiveWarmup resolves the warm-up budget: Warmup when set, otherwise
// a quarter of the instruction budget. It is the single source of the
// defaulting rule for callers that report or key on the warm-up.
func (p Params) EffectiveWarmup() uint64 {
	if p.Warmup > 0 {
		return p.Warmup
	}
	return p.Instructions / 4
}

func (p Params) warmup() uint64 { return p.EffectiveWarmup() }

func (p Params) workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// models resolves benchmark names to trace models.
func models(names []string) []trace.Model {
	ms := make([]trace.Model, len(names))
	for i, n := range names {
		ms[i] = bench.MustGet(n).Model
	}
	return ms
}

// STProfile is a single-threaded reference run: a CPI checkpoint curve used
// to evaluate CPI_ST at arbitrary instruction counts.
type STProfile struct {
	Benchmark string
	Result    core.Result
}

// CPIAt returns the single-threaded CPI after n committed instructions,
// linearly interpolating cumulative cycles between checkpoints (and
// extrapolating with the final average CPI beyond the profile).
func (p *STProfile) CPIAt(n uint64) float64 {
	prof := p.Result.Profiles[0]
	if n == 0 || len(prof) == 0 {
		if p.Result.IPC[0] > 0 {
			return 1 / p.Result.IPC[0]
		}
		return 0
	}
	var prevI uint64
	var prevC int64
	for _, pt := range prof {
		if pt.Instructions >= n {
			di := pt.Instructions - prevI
			if di == 0 {
				return float64(pt.Cycles) / float64(pt.Instructions)
			}
			cycles := float64(prevC) + float64(pt.Cycles-prevC)*float64(n-prevI)/float64(di)
			return cycles / float64(n)
		}
		prevI, prevC = pt.Instructions, pt.Cycles
	}
	last := prof[len(prof)-1]
	return float64(last.Cycles) / float64(last.Instructions)
}

// SlotGate admits simulations at the engine-slot boundary. When a Runner
// carries a gate, every multiprogram simulation acquires one slot before it
// starts executing (its single-threaded reference resolutions ride along
// under the same slot) and releases it when it finishes — so an external
// scheduler can arbitrate engine capacity among competing request streams
// one simulation at a time, without ever touching a simulation in flight.
// Acquire blocks until a slot is granted or ctx is done; the returned
// release must be called exactly once (extra calls must be no-ops on the
// implementation's side or guarded by the caller).
//
// Gating reorders only *when* simulations run, never what they compute: each
// simulation is deterministic and independent, and all batch consumers
// restore submission order, so gated and ungated executions produce
// byte-identical results.
type SlotGate interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// Runner executes simulations against a single-threaded reference cache.
type Runner struct {
	Params Params

	// Gate, when non-nil, admits each multiprogram simulation at the slot
	// boundary (see SlotGate). Set it before the Runner serves traffic.
	Gate SlotGate

	refs *RefCache

	// Live-traffic gauges for a service built on the runner. inFlight counts
	// simulations executing right now (multiprogram runs and reference runs
	// alike); queued counts batch requests accepted by RunBatch but not yet
	// finished.
	inFlight atomic.Int64
	queued   atomic.Int64
}

// InFlight reports the number of simulations executing at this instant.
func (r *Runner) InFlight() int64 { return r.inFlight.Load() }

// QueueDepth reports the number of batch requests accepted but not yet
// finished (including those currently executing).
func (r *Runner) QueueDepth() int64 { return r.queued.Load() }

// NewRunner returns a Runner with the given parameters and a private
// reference cache. A zero Instructions budget falls back to the harness
// default; explicitly set Warmup and Parallelism are preserved either way.
func NewRunner(p Params) *Runner {
	return NewRunnerWithCache(p, NewRefCache(DefaultCacheSize))
}

// NewRunnerWithCache is NewRunner drawing single-threaded references from
// (and publishing them to) the given shared cache.
func NewRunnerWithCache(p Params, refs *RefCache) *Runner {
	if p.Instructions == 0 {
		p.Instructions = DefaultParams().Instructions
	}
	if refs == nil {
		refs = NewRefCache(DefaultCacheSize)
	}
	return &Runner{Params: p, refs: refs}
}

// Refs returns the runner's reference cache.
func (r *Runner) Refs() *RefCache { return r.refs }

// RunSingleCtx simulates one benchmark alone on cfg (single-threaded mode
// of the same SMT core) for the runner's instruction budget, after warm-up,
// and returns the core too, so characterization experiments can read
// predictor state (MLP distance histograms, accuracy counters) after the
// run; that core is a new one, never taken from or returned to the pool. It
// returns the context's error without simulating if ctx is already done. (A
// simulation in progress runs to completion; cancellation is observed
// between simulations, which is the granularity batch execution needs.)
func (r *Runner) RunSingleCtx(ctx context.Context, cfg core.Config, benchmark string) (*core.Core, core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.Result{}, err
	}
	c := core.New(cfg, models([]string{benchmark}), core.ICount{}, nil)
	res := r.runWarm(c, r.Params.TraceInterval)
	return c, res, nil
}

// cores holds finished cores for the next cell. It is process-wide, not per
// Runner, because fleet workers and campaigns build a Runner per lease or
// run, and a per-Runner pool would start empty each time; it retains at most
// about one core per concurrent simulation.
var cores = sync.Pool{New: func() any { return new(core.Core) }}

// runRecycled runs one cell like runWarm on a core from the pool, reset to
// the cell's configuration, workload models, policy and limiter, then
// returns the core to the pool. The Result owns its memory, so it stays
// valid whatever the core runs next.
func (r *Runner) runRecycled(cfg core.Config, ms []trace.Model, p core.Policy, lim core.Limiter, traceEvery int64) core.Result {
	c := cores.Get().(*core.Core)
	c.Reset(cfg, ms, p, lim)
	res := r.runWarm(c, traceEvery)
	cores.Put(c)
	return res
}

// runWarm executes the warm-up phase, resets statistics and runs the
// measured phase, counting the whole execution as one in-flight simulation.
// traceEvery > 0 arms the interval recorder before warm-up; the stats reset
// restarts it, so only measured-phase samples survive.
func (r *Runner) runWarm(c *core.Core, traceEvery int64) core.Result {
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	if traceEvery > 0 {
		c.EnableIntervalTrace(traceEvery)
	}
	if w := r.Params.warmup(); w > 0 {
		c.Run(w)
		c.ResetStats()
	}
	return c.Run(r.Params.Instructions)
}

// STReferenceCtx returns (computing and caching as needed) the
// single-threaded reference profile of benchmark under cfg's per-thread
// configuration. Concurrent callers (from any Runner sharing the cache)
// requesting the same reference share one simulation.
func (r *Runner) STReferenceCtx(ctx context.Context, cfg core.Config, benchmark string) (*STProfile, error) {
	key := RefKey(cfg, benchmark, r.Params.Instructions, r.Params.warmup())
	return r.refs.getOrCompute(ctx, key, func(ctx context.Context) (*STProfile, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// References never trace (traceEvery 0): their bytes are cached and
		// persisted under keys that exclude the trace knob.
		res := r.runRecycled(cfg, models([]string{benchmark}), core.ICount{}, nil, 0)
		return &STProfile{Benchmark: benchmark, Result: res}, nil
	})
}

// WorkloadResult is one multiprogram simulation with its system metrics.
type WorkloadResult struct {
	Workload bench.Workload
	Policy   string
	Result   core.Result
	STP      float64
	ANTT     float64
	// PerThread holds the CPI pairs behind STP/ANTT, in workload order.
	PerThread []metrics.ThreadPerf
}

// RunWorkloadCtx simulates one multiprogram request — configuration,
// workload, fetch policy kind and optional limiter — computing STP and ANTT
// against cached single-threaded references at matched instruction counts.
// A zero req.TraceInterval inherits the runner's Params.TraceInterval. It
// refuses to start once ctx is done and propagates cancellation encountered
// while resolving the single-threaded references.
func (r *Runner) RunWorkloadCtx(ctx context.Context, req BatchRequest) (WorkloadResult, error) {
	if err := ctx.Err(); err != nil {
		return WorkloadResult{}, err
	}
	if r.Gate != nil {
		release, err := r.Gate.Acquire(ctx)
		if err != nil {
			return WorkloadResult{}, err
		}
		defer release()
	}
	every := req.TraceInterval
	if every == 0 {
		every = r.Params.TraceInterval
	}
	res := r.runRecycled(req.Config, models(req.Workload.Benchmarks), policy.New(req.Kind), req.Limiter, every)

	name := req.Kind.String()
	if req.Limiter != nil {
		name = req.Limiter.Name()
	}
	out := WorkloadResult{Workload: req.Workload, Policy: name, Result: res}
	for i, b := range req.Workload.Benchmarks {
		ref, err := r.STReferenceCtx(ctx, req.Config, b)
		if err != nil {
			return WorkloadResult{}, err
		}
		cpiST := ref.CPIAt(res.Committed[i])
		cpiMT := 0.0
		if res.Committed[i] > 0 {
			cpiMT = float64(res.Cycles) / float64(res.Committed[i])
		}
		out.PerThread = append(out.PerThread, metrics.ThreadPerf{CPIST: cpiST, CPIMT: cpiMT})
	}
	out.STP = metrics.STP(out.PerThread)
	out.ANTT = metrics.ANTT(out.PerThread)
	return out, nil
}
