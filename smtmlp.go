// Package smtmlp is a from-scratch reproduction of "Memory-Level Parallelism
// Aware Fetch Policies for Simultaneous Multithreading Processors" (Eyerman
// and Eeckhout, HPCA 2007 / ACM TACO 2009): a cycle-level SMT out-of-order
// processor simulator with every fetch policy the paper evaluates, the MLP
// predictors that are the paper's contribution, calibrated synthetic SPEC
// CPU2000 workload models, and a harness that regenerates every table and
// figure of the evaluation.
//
// This package is the public facade, organized around the Engine: a
// long-lived, concurrency-safe handle configured with functional options
// that owns the simulation parameters and a shared single-threaded
// reference cache. A minimal session:
//
//	eng := smtmlp.NewEngine(smtmlp.WithInstructions(300_000))
//	res, err := eng.RunWorkload(context.Background(),
//		smtmlp.DefaultConfig(2), smtmlp.Mix("mcf", "galgel"), smtmlp.MLPFlush)
//	if err != nil { ... }
//	fmt.Printf("STP %.3f ANTT %.3f\n", res.STP, res.ANTT)
//
// Sweep-shaped traffic — policy x workload x configuration cross-products —
// goes through Engine.RunBatch, which fans requests over a bounded worker
// pool with context cancellation and streams results back as they complete;
// CrossProduct builds the request list. Engines sharing a Cache (see
// WithCache) reuse each other's single-threaded references, the way a
// long-running service amortizes them across requests.
//
// The package's result and request types carry JSON tags: they are the wire
// format of the HTTP batch-simulation service (cmd/smtserved), which serves
// one long-lived Engine over REST and streams batches back as NDJSON. The
// serialization is pinned by a golden-file test; see DESIGN.md.
//
// Fingerprint content-addresses a Request under a measurement budget; it is
// the key of the persistent result store behind the campaign subsystem
// (cmd/smtsweep, POST /v1/campaigns), which expands declarative sweep specs,
// skips cells whose fingerprints are already stored, and resumes interrupted
// sweeps. Cache.Export and Cache.Seed are the matching warm-start path for
// the single-threaded reference profiles.
//
// Lower-level building blocks (the pipeline, the memory hierarchy, the LLSR
// and predictors, the trace generators) live in the internal packages and
// are documented in DESIGN.md; cmd/repro regenerates the paper's evaluation
// and cmd/smtsim runs ad-hoc workloads.
package smtmlp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
)

// Config is the SMT processor configuration; DefaultConfig returns the
// paper's Table IV baseline.
type Config = core.Config

// DefaultConfig returns the baseline SMT processor of Table IV for the given
// number of hardware threads: 4-wide, ICOUNT 2.4 fetch, 256-entry shared
// ROB, 128-entry LSQ, 64-entry issue queues, 100+100 rename registers,
// 64KB/512KB/4MB cache hierarchy with stream-buffer prefetching, 350-cycle
// memory latency.
func DefaultConfig(threads int) Config { return core.DefaultConfig(threads) }

// Policy selects the SMT fetch policy.
type Policy = policy.Kind

// The fetch policies of the paper's evaluation (Sections 4.3 and 6.5).
const (
	// ICount is the baseline ICOUNT 2.4 policy (Tullsen et al., ISCA 1996).
	ICount = policy.ICount
	// Stall fetch-stalls a thread on a detected long-latency load (Tullsen
	// and Brown, MICRO 2001).
	Stall = policy.Stall
	// PredStall stalls on a front-end long-latency load prediction (Cazorla
	// et al.).
	PredStall = policy.PredStall
	// MLPStall predicts the MLP distance m and stalls m instructions past a
	// predicted long-latency load.
	MLPStall = policy.MLPStall
	// Flush flushes instructions past a detected long-latency load.
	Flush = policy.Flush
	// MLPFlush is the paper's headline policy: flush/stall m instructions
	// past a detected long-latency load, where m is the predicted MLP
	// distance.
	MLPFlush = policy.MLPFlush
	// BinaryFlush is the Section 6.5 alternative (c).
	BinaryFlush = policy.BinaryFlush
	// MLPFlushAtStall is the Section 6.5 alternative (d).
	MLPFlushAtStall = policy.MLPFlushAtStall
	// BinaryFlushAtStall is the Section 6.5 alternative (e).
	BinaryFlushAtStall = policy.BinaryFlushAtStall
)

// Policies returns the six policies of the paper's main evaluation.
func Policies() []Policy { return policy.Paper() }

// AllPolicies returns every implemented policy, including the Section 6.5
// alternatives.
func AllPolicies() []Policy { return policy.Kinds() }

// ParsePolicy resolves a policy's short name (its String form, e.g.
// "mlpflush") back to a Policy; unknown names return an error wrapping
// ErrUnknownPolicy.
func ParsePolicy(name string) (Policy, error) {
	p, err := policy.Parse(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
	}
	return p, nil
}

// Workload is a multiprogrammed mix of benchmarks.
type Workload = bench.Workload

// Mix builds an ad-hoc workload from benchmark names (see Benchmarks for
// valid names).
func Mix(names ...string) Workload { return bench.Workload{Benchmarks: names} }

// Benchmarks returns the names of the 26 SPEC CPU2000 workload models in
// Table I order.
func Benchmarks() []string { return bench.Names() }

// TwoThreadWorkloads returns the 36 workloads of Table II.
func TwoThreadWorkloads() []Workload { return bench.TwoThreadWorkloads() }

// FourThreadWorkloads returns the 30 workloads of Table III.
func FourThreadWorkloads() []Workload { return bench.FourThreadWorkloads() }

// Typed errors. Wrap/compare with errors.Is; a canceled run also matches
// the context package's own context.Canceled / context.DeadlineExceeded.
var (
	// ErrUnknownBenchmark reports a benchmark name outside the Table I
	// catalog (see Benchmarks for valid names).
	ErrUnknownBenchmark = errors.New("smtmlp: unknown benchmark")
	// ErrUnknownPolicy reports a policy name outside the implemented set
	// (see AllPolicies).
	ErrUnknownPolicy = errors.New("smtmlp: unknown policy")
	// ErrWorkloadMismatch reports a workload whose benchmark count differs
	// from the configuration's hardware thread count (every thread runs
	// exactly one benchmark, so the two must agree).
	ErrWorkloadMismatch = errors.New("smtmlp: workload/config thread count mismatch")
	// ErrCanceled reports a run abandoned because its context was canceled
	// or its deadline expired.
	ErrCanceled = errors.New("smtmlp: run canceled")
)

// canceledError wraps the context's error so that callers can match either
// taxonomy: errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
// both hold.
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return "smtmlp: run canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() error        { return e.cause }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// wrapErr maps internal errors onto the package's typed errors.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}

// checkBenchmarks validates every benchmark name of a workload. An empty
// workload is rejected here so it surfaces as an error instead of a panic
// from the pipeline (which requires at least one model).
func checkBenchmarks(names []string) error {
	if len(names) == 0 {
		return errors.New("smtmlp: workload has no benchmarks")
	}
	for _, n := range names {
		if _, err := bench.Get(n); err != nil {
			return fmt.Errorf("%w: %q", ErrUnknownBenchmark, n)
		}
	}
	return nil
}

// checkWorkload validates a workload against a configuration: every
// benchmark must exist and the benchmark count must equal the configured
// hardware thread count. Without the second check a mismatch used to surface
// as a confusing deep-simulation failure (the pipeline silently resizes to
// the model count, desynchronizing the config the caller thinks it ran).
func checkWorkload(cfg Config, names []string) error {
	if err := checkBenchmarks(names); err != nil {
		return err
	}
	if cfg.Threads != len(names) {
		return fmt.Errorf("%w: workload has %d benchmarks but config has threads=%d",
			ErrWorkloadMismatch, len(names), cfg.Threads)
	}
	return nil
}

// Cache holds single-threaded reference profiles keyed by benchmark,
// measurement budget and a full configuration hash. It is safe for
// concurrent use and size-bounded (LRU). Pass one Cache to several engines
// via WithCache to share references between them — repeated sweeps and
// concurrent engines then each compute a given reference at most once.
type Cache struct{ refs *sim.RefCache }

// NewCache returns a reference cache bounded to maxEntries profiles;
// maxEntries <= 0 selects the default bound.
func NewCache(maxEntries int) *Cache { return &Cache{refs: sim.NewRefCache(maxEntries)} }

// Len reports the number of resident reference profiles.
func (c *Cache) Len() int { return c.refs.Len() }

// RefProfile is one persisted single-threaded reference profile: the cache
// key (benchmark, budget, full-config hash) together with the CPI checkpoint
// profile behind it. It is the unit of the cache's Export/Seed warm-start
// path: a result store persists RefProfiles so a restarted service skips
// reference re-simulation.
type RefProfile = sim.RefRecord

// Export snapshots the cache's resident reference profiles, sorted by key
// (deterministic regardless of insertion or LRU order).
func (c *Cache) Export() []RefProfile { return c.refs.Export() }

// Seed inserts profiles (from a previous Export, typically persisted in a
// result store) as resident entries, skipping keys already present, and
// returns the number inserted. Seeding respects the cache's LRU bound.
func (c *Cache) Seed(profiles []RefProfile) int { return c.refs.Seed(profiles) }

// Stats reports cache lookup hits, misses (reference simulations run) and
// LRU evictions.
func (c *Cache) Stats() (hits, misses, evictions uint64) { return c.refs.Stats() }

// Engine is the long-lived entry point: it fixes the simulation parameters
// (instruction budget, warm-up, parallelism) and owns a reference Cache.
// An Engine is safe for concurrent use; all methods honor their context.
type Engine struct {
	runner   *sim.Runner
	cache    *Cache
	progress func(completed, total int)
}

// SlotGate admits simulations at the engine-slot boundary: every
// multiprogram simulation acquires one slot before executing and releases it
// after. Install one with WithSlotGate to let an external scheduler (e.g. a
// multi-tenant admission layer) arbitrate engine capacity one simulation at
// a time; gating reorders execution, never results.
type SlotGate = sim.SlotGate

// engineOptions collects functional-option state before the Engine is built.
type engineOptions struct {
	params    sim.Params
	cacheSize int
	cache     *Cache
	gate      SlotGate
	progress  func(completed, total int)
}

// Option configures an Engine under construction.
type Option func(*engineOptions)

// WithInstructions sets the per-thread instruction budget (the run stops
// when the first thread commits this many — the paper's stopping rule).
// Zero keeps the default laptop-scale budget of 300K.
func WithInstructions(n uint64) Option {
	return func(o *engineOptions) {
		if n > 0 {
			o.params.Instructions = n
		}
	}
}

// WithWarmup sets the instructions executed before statistics reset; zero
// (the default) means a quarter of the instruction budget.
func WithWarmup(n uint64) Option {
	return func(o *engineOptions) { o.params.Warmup = n }
}

// WithParallelism bounds concurrent simulations per RunBatch call; zero
// (the default) means GOMAXPROCS. The bound is per batch, not engine-wide:
// concurrent RunBatch calls on one engine each get their own worker pool.
func WithParallelism(n int) Option {
	return func(o *engineOptions) { o.params.Parallelism = n }
}

// WithCacheSize bounds the engine's private reference cache to the given
// number of profiles. It is ignored when WithCache supplies a shared cache.
func WithCacheSize(entries int) Option {
	return func(o *engineOptions) { o.cacheSize = entries }
}

// WithCache makes the engine draw single-threaded references from (and
// publish them to) a shared Cache instead of a private one.
func WithCache(c *Cache) Option {
	return func(o *engineOptions) { o.cache = c }
}

// WithSlotGate installs a slot-admission gate: each of the engine's
// simulations (RunWorkload calls and RunBatch cells alike) acquires one slot
// from the gate before executing. Several engines may share one gate, which
// then bounds and arbitrates their combined concurrency — the service layer
// uses this to schedule one engine's slots across tenants. A nil gate leaves
// admission unlimited (the default).
func WithSlotGate(g SlotGate) Option {
	return func(o *engineOptions) { o.gate = g }
}

// WithIntervalTrace enables the interval-trace recorder for every simulation
// the engine runs: one per-thread IntervalSample every `every` cycles,
// carried on SingleResult.Intervals and ThreadResult.Intervals. Zero (the
// default) disables tracing, at zero cost on the simulator's hot path.
// Traces are observations only — enabling them changes no simulated outcome,
// and repeated runs of the same request produce byte-identical traces.
// Single-threaded reference profiles (the CPI_ST inputs to STP/ANTT) never
// carry traces regardless of this option, so cached and persisted references
// stay byte-identical across engines with different trace settings.
func WithIntervalTrace(every int64) Option {
	return func(o *engineOptions) {
		if every > 0 {
			o.params.TraceInterval = every
		}
	}
}

// WithProgress installs a callback invoked after each completed batch
// request with (completed, total). Within one RunBatch the calls are
// sequential (from that batch's collector goroutine), but concurrent
// RunBatch calls on the same engine invoke the callback concurrently —
// synchronize in the callback if it touches shared state. Keep it fast.
func WithProgress(fn func(completed, total int)) Option {
	return func(o *engineOptions) { o.progress = fn }
}

// NewEngine builds an Engine from the options; the zero-option engine uses
// the laptop-scale defaults (300K instructions, budget/4 warm-up, GOMAXPROCS
// parallelism, a private default-sized cache).
func NewEngine(opts ...Option) *Engine {
	o := engineOptions{params: sim.DefaultParams()}
	for _, opt := range opts {
		opt(&o)
	}
	cache := o.cache
	if cache == nil {
		cache = NewCache(o.cacheSize)
	}
	runner := sim.NewRunnerWithCache(o.params, cache.refs)
	runner.Gate = o.gate
	return &Engine{
		runner:   runner,
		cache:    cache,
		progress: o.progress,
	}
}

// Instructions returns the engine's per-thread instruction budget.
func (e *Engine) Instructions() uint64 { return e.runner.Params.Instructions }

// Warmup returns the engine's resolved warm-up budget.
func (e *Engine) Warmup() uint64 { return e.runner.Params.EffectiveWarmup() }

// Parallelism returns the configured batch parallelism bound (0 means
// GOMAXPROCS).
func (e *Engine) Parallelism() int { return e.runner.Params.Parallelism }

// Cache returns the engine's reference cache (shared or private).
func (e *Engine) Cache() *Cache { return e.cache }

// EngineMetrics is a point-in-time snapshot of an engine's live-traffic
// gauges and reference-cache counters, shaped for a metrics endpoint.
type EngineMetrics struct {
	// InFlight counts simulations executing right now (multiprogram runs
	// and single-threaded reference runs alike).
	InFlight int64 `json:"in_flight"`
	// QueueDepth counts batch requests accepted but not yet finished.
	QueueDepth int64 `json:"queue_depth"`

	CacheEntries   int    `json:"cache_entries"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
}

// Metrics snapshots the engine's gauges and cache counters. The snapshot is
// not atomic across fields; it is meant for monitoring, not invariants.
func (e *Engine) Metrics() EngineMetrics {
	m := EngineMetrics{
		InFlight:     e.runner.InFlight(),
		QueueDepth:   e.runner.QueueDepth(),
		CacheEntries: e.cache.Len(),
	}
	m.CacheHits, m.CacheMisses, m.CacheEvictions = e.cache.Stats()
	return m
}

// IntervalSample is one interval-trace observation for one thread: counter
// deltas over the interval plus instantaneous pipeline state at the interval
// boundary. Traces are opt-in (WithIntervalTrace or Request.TraceInterval)
// and byte-deterministic; the recorder retains at most the last 512 samples
// per thread, so payloads stay bounded for any run length. The kernel's
// sample is the wire shape: its JSON tags are pinned by the wire-schema
// golden test.
type IntervalSample = core.IntervalSample

// SingleResult reports a single-threaded run. The JSON tags are the wire
// format served over HTTP (cmd/smtserved); renaming a tag is a breaking API
// change and is pinned by the wire-schema golden test.
type SingleResult struct {
	IPC                  float64 `json:"ipc"`
	Cycles               int64   `json:"cycles"`
	Instructions         uint64  `json:"instructions"`
	LLLPer1K             float64 `json:"lll_per_1k"` // long-latency loads per 1K instructions
	MLP                  float64 `json:"mlp"`        // Chou et al. MLP
	BranchMispredictRate float64 `json:"branch_mispredict_rate"`
	// Intervals is the run's interval trace (absent unless tracing was
	// enabled, see WithIntervalTrace).
	Intervals []IntervalSample `json:"intervals,omitempty"`
}

// ThreadResult reports one thread of a multiprogrammed run.
type ThreadResult struct {
	Benchmark string  `json:"benchmark"`
	IPC       float64 `json:"ipc"`
	Committed uint64  `json:"committed"`
	LLLPer1K  float64 `json:"lll_per_1k"`
	MLP       float64 `json:"mlp"`
	Flushes   uint64  `json:"flushes"`
	CPIST     float64 `json:"cpi_st"` // single-threaded CPI at the same instruction count
	CPIMT     float64 `json:"cpi_mt"` // multithreaded CPI in this run
	// Intervals is the thread's interval trace (absent unless tracing was
	// enabled, see WithIntervalTrace and Request.TraceInterval).
	Intervals []IntervalSample `json:"intervals,omitempty"`
}

// WorkloadResult reports a multiprogrammed run with the paper's system-level
// metrics.
type WorkloadResult struct {
	Policy  string         `json:"policy"`
	Threads []ThreadResult `json:"threads"`
	Cycles  int64          `json:"cycles"`
	STP     float64        `json:"stp"`  // system throughput; higher is better
	ANTT    float64        `json:"antt"` // average normalized turnaround time; lower is better
}

// RunSingle simulates one benchmark alone on cfg (which must be a
// single-threaded configuration: cfg.Threads == 1).
func (e *Engine) RunSingle(ctx context.Context, cfg Config, benchmark string) (SingleResult, error) {
	if err := checkWorkload(cfg, []string{benchmark}); err != nil {
		return SingleResult{}, err
	}
	_, res, err := e.runner.RunSingleCtx(ctx, cfg, benchmark)
	if err != nil {
		return SingleResult{}, wrapErr(err)
	}
	out := SingleResult{
		IPC:                  res.IPC[0],
		Cycles:               res.Cycles,
		Instructions:         res.Committed[0],
		LLLPer1K:             res.LLLPer1K[0],
		MLP:                  res.MLP[0],
		BranchMispredictRate: res.BranchMispredictRate[0],
	}
	if len(res.Intervals) > 0 && len(res.Intervals[0]) > 0 {
		out.Intervals = res.Intervals[0]
	}
	return out, nil
}

// RunWorkload simulates a multiprogrammed workload under the given fetch
// policy, computing STP and ANTT against single-threaded references at
// matched instruction counts (the paper's methodology). References come
// from the engine's Cache.
func (e *Engine) RunWorkload(ctx context.Context, cfg Config, w Workload, p Policy) (WorkloadResult, error) {
	return e.RunRequest(ctx, Request{Config: cfg, Workload: w, Policy: p})
}

// RunRequest executes one Request — configuration, workload, policy and
// optional per-request TraceInterval — and returns its result. It is
// RunWorkload with the Request's trace knob honored (a zero TraceInterval
// inherits the engine's WithIntervalTrace setting); the HTTP service's
// /v1/run maps onto it.
func (e *Engine) RunRequest(ctx context.Context, req Request) (WorkloadResult, error) {
	if err := checkWorkload(req.Config, req.Workload.Benchmarks); err != nil {
		return WorkloadResult{}, err
	}
	res, err := e.runner.RunWorkloadCtx(ctx, req.simRequest())
	if err != nil {
		return WorkloadResult{}, wrapErr(err)
	}
	return workloadResult(req.Workload, res), nil
}

// workloadResult converts an internal workload result to the public shape.
func workloadResult(w Workload, res sim.WorkloadResult) WorkloadResult {
	out := WorkloadResult{
		Policy: res.Policy,
		Cycles: res.Result.Cycles,
		STP:    res.STP,
		ANTT:   res.ANTT,
	}
	for i, b := range w.Benchmarks {
		tr := ThreadResult{
			Benchmark: b,
			IPC:       res.Result.IPC[i],
			Committed: res.Result.Committed[i],
			LLLPer1K:  res.Result.LLLPer1K[i],
			MLP:       res.Result.MLP[i],
			Flushes:   res.Result.Flushes[i],
			CPIST:     res.PerThread[i].CPIST,
			CPIMT:     res.PerThread[i].CPIMT,
		}
		if i < len(res.Result.Intervals) && len(res.Result.Intervals[i]) > 0 {
			tr.Intervals = res.Result.Intervals[i]
		}
		out.Threads = append(out.Threads, tr)
	}
	return out
}

// Request is one simulation in a batch: a configuration point, a workload
// and a fetch policy. Tag is caller-chosen and echoed on the result (
// CrossProduct fills it with "workload/policy"). Policy marshals as its
// short name ("mlpflush"), so a Request round-trips through JSON.
type Request struct {
	Tag      string   `json:"tag,omitempty"`
	Config   Config   `json:"config"`
	Workload Workload `json:"workload"`
	Policy   Policy   `json:"policy"`
	// TraceInterval > 0 enables interval tracing for this request alone
	// (one sample every TraceInterval cycles); 0 inherits the engine's
	// WithIntervalTrace setting. Like Tag it is deliberately excluded from
	// Fingerprint: traces observe a simulation, they do not change it.
	TraceInterval int64 `json:"trace_interval,omitempty"`
}

// simRequest maps a Request onto the runner's request shape.
func (req Request) simRequest() sim.BatchRequest {
	return sim.BatchRequest{
		Tag:           req.Tag,
		Config:        req.Config,
		Workload:      req.Workload,
		Kind:          req.Policy,
		TraceInterval: req.TraceInterval,
	}
}

// BatchResult pairs a finished Request with its outcome. Index is the
// request's position in the submitted slice — results stream in completion
// order, so use Index (or Tag) to restore the deterministic submission
// order. Exactly one of Result/Err is meaningful.
type BatchResult struct {
	Index   int
	Request Request
	Result  WorkloadResult
	Err     error
}

// batchResultWire is the JSON shape of a BatchResult: the error travels as a
// string ("" = success) and a failed request omits its result.
type batchResultWire struct {
	Index   int             `json:"index"`
	Request Request         `json:"request"`
	Result  *WorkloadResult `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// MarshalJSON implements the NDJSON line format the batch service streams:
// {"index":..,"request":{..},"result":{..}} on success,
// {"index":..,"request":{..},"error":"..."} on failure.
func (r BatchResult) MarshalJSON() ([]byte, error) {
	w := batchResultWire{Index: r.Index, Request: r.Request}
	if r.Err != nil {
		w.Error = r.Err.Error()
	} else {
		w.Result = &r.Result
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form. A remote failure surfaces as a plain
// error carrying the server's message; it no longer matches the package's
// typed errors (the error crossed a process boundary).
func (r *BatchResult) UnmarshalJSON(data []byte) error {
	var w batchResultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = BatchResult{Index: w.Index, Request: w.Request}
	if w.Error != "" {
		r.Err = errors.New(w.Error)
	} else if w.Result != nil {
		r.Result = *w.Result
	}
	return nil
}

// CrossProduct builds the policy x workload cross-product on one
// configuration, in workload-major order (all policies of workload 0, then
// workload 1, ...), tagged "workload/policy".
func CrossProduct(cfg Config, workloads []Workload, policies []Policy) []Request {
	reqs := make([]Request, 0, len(workloads)*len(policies))
	for _, w := range workloads {
		for _, p := range policies {
			reqs = append(reqs, Request{
				Tag:      fmt.Sprintf("%s/%s", w.Name(), p),
				Config:   cfg,
				Workload: w,
				Policy:   p,
			})
		}
	}
	return reqs
}

// RunBatch fans the requests over a worker pool bounded by the engine's
// parallelism and streams results back as they complete. The returned
// channel is buffered for the whole batch and always closes after exactly
// len(reqs) results, so a canceled or abandoned batch still drains cleanly.
// Once ctx is done, requests not yet started complete without simulating,
// with an ErrCanceled-wrapped error; requests with unknown benchmarks fail with
// ErrUnknownBenchmark without occupying the pool. Single-threaded
// references are shared through the engine's Cache, so a policy x workload
// cross-product computes each reference once.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) <-chan BatchResult {
	out := make(chan BatchResult, len(reqs))

	// Validate up front: invalid requests fail immediately and never reach
	// the worker pool.
	simReqs := make([]sim.BatchRequest, 0, len(reqs))
	simIdx := make([]int, 0, len(reqs))
	invalid := 0
	for i, req := range reqs {
		if err := checkWorkload(req.Config, req.Workload.Benchmarks); err != nil {
			out <- BatchResult{Index: i, Request: req, Err: err}
			invalid++
			continue
		}
		simReqs = append(simReqs, req.simRequest())
		simIdx = append(simIdx, i)
	}

	ch := e.runner.RunBatch(ctx, simReqs)
	go func() {
		total := len(reqs)
		done := 0
		for ; done < invalid; done++ {
			if e.progress != nil {
				e.progress(done+1, total)
			}
		}
		for br := range ch {
			i := simIdx[br.Index]
			req := reqs[i]
			pub := BatchResult{Index: i, Request: req, Err: wrapErr(br.Err)}
			if br.Err == nil {
				pub.Result = workloadResult(req.Workload, br.Res)
			}
			out <- pub
			done++
			if e.progress != nil {
				e.progress(done, total)
			}
		}
		close(out)
	}()
	return out
}

// ConfigHash returns the FNV-64a hash of the full processor configuration —
// every field, including the memory hierarchy and branch predictor — so any
// configuration change yields a distinct hash (up to the negligible ~2^-64
// collision chance). It is the configuration component of Fingerprint and of
// the reference-cache key.
func ConfigHash(cfg Config) uint64 { return sim.ConfigHash(cfg) }

// Fingerprint content-addresses one simulation: the benchmark mix, the fetch
// policy, the measurement budget (instructions and resolved warm-up) and the
// ConfigHash of the full configuration. Two requests with equal fingerprints
// produce byte-identical results (the simulator is deterministic), which is
// what lets a persistent result store deduplicate and resume sweeps. The
// caller-chosen Tag is deliberately excluded: it labels a request, it does
// not change the simulation.
//
// The human-readable prefix (workload, policy, budgets) aids debugging and
// store inspection; the trailing hash additionally covers the benchmark list
// with separators and the full configuration, so the fingerprint as a whole
// is collision-resistant even where names could be ambiguous.
func Fingerprint(req Request, instructions, warmup uint64) string {
	h := fnv.New64a()
	for _, b := range req.Workload.Benchmarks {
		h.Write([]byte(b))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "%s|i=%d|w=%d|cfg=%016x", req.Policy, instructions, warmup, ConfigHash(req.Config))
	return fmt.Sprintf("%s|%s|i=%d|w=%d|%016x",
		req.Workload.Name(), req.Policy, instructions, warmup, h.Sum64())
}

// Fingerprint content-addresses req under this engine's measurement budget;
// see the package-level Fingerprint.
func (e *Engine) Fingerprint(req Request) string {
	return Fingerprint(req, e.Instructions(), e.Warmup())
}
