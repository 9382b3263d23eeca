// Package server exposes the smtmlp Engine over HTTP: the batch-simulation
// service cmd/smtserved serves. One long-lived Engine (with its shared
// reference cache) backs every request; handlers propagate the request
// context into the engine, so a client disconnect cancels the simulations it
// requested and the batch worker pool drains cleanly.
//
// Endpoints:
//
//	GET  /healthz      — liveness probe
//	GET  /metrics      — engine gauges (in-flight sims, queue depth, cache
//	                     hit/miss/eviction counters) and server counters
//	GET  /v1/policies  — the implemented fetch policies
//	GET  /v1/workloads — the benchmark catalog and Table II/III workloads
//	POST /v1/run       — one simulation, JSON in / JSON out
//	POST /v1/batch     — a policy x workload cross-product, streamed back as
//	                     NDJSON (one smtmlp.BatchResult per line) in
//	                     submission order as results complete
//	POST /v1/campaigns — start an asynchronous, persistent campaign (an
//	                     internal/campaign.Spec) against the server's result
//	                     store; answers 202 with the campaign id
//	GET  /v1/campaigns — list campaigns; /v1/campaigns/{id} polls one
//	POST /v1/work/lease    — accept a lease of campaign cells from a fleet
//	                         coordinator (see work.go); answers 202
//	POST /v1/work/complete — long-poll a lease and collect its results,
//	                         streamed back as NDJSON
//	GET  /v1/work          — list the leases this worker currently holds
//
// Errors are JSON bodies {"error":{"code":...,"message":...}} with stable
// codes (unknown_benchmark, unknown_policy, invalid_request,
// invalid_workload, batch_too_large, too_many_threads, unknown_campaign,
// unknown_lease, worker_busy, store_unavailable).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smtmlp"
	"smtmlp/internal/metrics"
	"smtmlp/internal/obs"
	"smtmlp/internal/store"
	"smtmlp/internal/tenant"
)

// Defaults for the request-validation bounds.
const (
	DefaultMaxBatch   = 4096 // requests per /v1/batch call
	DefaultMaxThreads = 8    // benchmarks per workload

	// maxBodyBytes caps request bodies before decoding: even a full-size
	// batch (4096 workloads of 8 names plus config overrides) is far under
	// 1MB, so anything bigger is rejected before it can allocate.
	maxBodyBytes = 1 << 20
)

// Error codes returned in the typed error body.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeInvalidWorkload  = "invalid_workload"
	CodeUnknownBenchmark = "unknown_benchmark"
	CodeUnknownPolicy    = "unknown_policy"
	CodeUnknownCampaign  = "unknown_campaign"
	CodeUnknownLease     = "unknown_lease"
	CodeBatchTooLarge    = "batch_too_large"
	CodeTooManyThreads   = "too_many_threads"
	CodeStoreUnavailable = "store_unavailable"
	CodeWorkerBusy       = "worker_busy"
	CodeCanceled         = "canceled"
	CodeInternal         = "internal"

	// Tenancy codes (servers running with a tenant table): unauthorized is
	// the 401 for a missing/unknown API key; rate_limited is the 429 for a
	// drained token bucket (with an honest Retry-After header); and
	// quota_exceeded is the 429 for a concurrency quota (in-flight cells,
	// campaigns, leases) — no Retry-After, because quota frees when work
	// finishes, not with time.
	CodeUnauthorized  = "unauthorized"
	CodeRateLimited   = "rate_limited"
	CodeQuotaExceeded = "quota_exceeded"
)

// Server is the HTTP surface over one long-lived Engine. It implements
// http.Handler and is safe for concurrent use.
type Server struct {
	eng        *smtmlp.Engine
	maxBatch   int
	maxThreads int
	mux        *http.ServeMux

	// Campaign state (nil store disables the campaign endpoints).
	store     *store.Store
	baseCtx   context.Context
	mu        sync.Mutex
	campaigns map[string]*campaignRun
	order     []string // campaign ids in creation order
	nextID    int

	// Work-lease state (the /v1/work worker protocol; see work.go). Guarded
	// by mu alongside the campaign maps.
	leases     map[string]*workLease
	leaseOrder []string // lease ids in acceptance order
	maxLeases  int
	leaseTTL   time.Duration

	// Multi-tenancy (nil table = single-tenant: no auth, no admission, no
	// slot scheduling — see tenancy.go). gate is shared with the service
	// engine and installed on per-lease and campaign engines so every
	// simulation cell passes the same tenant scheduler.
	tenants *tenant.Table
	gate    smtmlp.SlotGate

	// Observability: the structured logger (obs.Discard() unless WithLogger
	// installs one; every line carries the request's correlation IDs) and the
	// latency histograms exposed on /metrics — JSON summaries always,
	// full buckets under ?format=prometheus.
	log           *slog.Logger
	runLatency    metrics.Histogram
	batchDuration metrics.Histogram
	leaseLifetime metrics.Histogram

	// Server-level counters for /metrics.
	requestsTotal  atomic.Int64
	batchesActive  atomic.Int64
	batchResults   atomic.Int64
	clientsDropped atomic.Int64
	unauthorized   atomic.Int64

	// Work-lease counters for /metrics. The byte counters track the
	// /v1/work wire on both sides of the gzip boundary (see WorkMetrics).
	leasesAccepted   atomic.Int64
	leasesRenewed    atomic.Int64
	leasesCollected  atomic.Int64
	leasesExpired    atomic.Int64
	cellsExecuted    atomic.Int64
	cellsFailed      atomic.Int64
	workBytesIn      atomic.Int64
	workBytesInWire  atomic.Int64
	workBytesOut     atomic.Int64
	workBytesOutWire atomic.Int64
}

// Option configures a Server under construction.
type Option func(*Server)

// WithMaxBatch bounds the number of simulations one /v1/batch call may
// request (the policy x workload product); n <= 0 keeps the default.
func WithMaxBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithMaxThreads bounds the number of benchmarks per workload; n <= 0 keeps
// the default.
func WithMaxThreads(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxThreads = n
		}
	}
}

// WithStore backs the campaign endpoints (POST/GET /v1/campaigns) with a
// persistent result store. Without a store those endpoints answer 503.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.store = st }
}

// WithMaxLeases bounds the number of running work leases the server holds at
// once (further leases answer 429 worker_busy); n <= 0 keeps the default.
func WithMaxLeases(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxLeases = n
		}
	}
}

// WithLeaseTTL sets how long an uncollected work lease survives before the
// worker cancels and forgets it; d <= 0 keeps the default. A lease may
// request a shorter TTL than the server's, never a longer one.
func WithLeaseTTL(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.leaseTTL = d
		}
	}
}

// WithLogger installs a structured logger; every handler log line carries
// the request's correlation IDs (request_id, and lease_id/campaign_id where
// a lease is in play). The default discards everything, so logging is
// strictly opt-in and the untenanted fast path stays silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithBaseContext sets the lifecycle context for asynchronous campaign
// execution (campaigns outlive the POST request that started them).
// Canceling it — e.g. on SIGTERM — cleanly interrupts running campaigns;
// everything committed so far stays in the store and a later identical POST
// resumes the gaps. The default is context.Background().
func WithBaseContext(ctx context.Context) Option {
	return func(s *Server) {
		if ctx != nil {
			s.baseCtx = ctx
		}
	}
}

// New builds a Server over eng. The engine is owned by the caller and may be
// shared (e.g. with a second server or background sweeps); its reference
// cache warms across all of them.
func New(eng *smtmlp.Engine, opts ...Option) *Server {
	s := &Server{
		eng:        eng,
		maxBatch:   DefaultMaxBatch,
		maxThreads: DefaultMaxThreads,
		baseCtx:    context.Background(),
		campaigns:  make(map[string]*campaignRun),
		leases:     make(map[string]*workLease),
		maxLeases:  DefaultMaxLeases,
		leaseTTL:   DefaultLeaseTTL,
		log:        obs.Discard(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignCreate)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("POST /v1/work/lease", s.handleWorkLease)
	s.mux.HandleFunc("POST /v1/work/complete", s.handleWorkComplete)
	s.mux.HandleFunc("GET /v1/work", s.handleWorkList)
	return s
}

// ServeHTTP implements http.Handler. Every request is assigned a request ID
// here — the X-Request-Id header when the caller (e.g. a fleet coordinator)
// sent one, a fresh random ID otherwise — which is echoed on the response,
// carried in the request context and attached to every log line the request
// produces. With a tenant table installed, /v1 requests authenticate here
// (401 unauthorized otherwise) and carry their resolved tenant in the
// request context from this point on.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requestsTotal.Add(1)
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
	r, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// logger returns the server logger bound to the request's correlation IDs.
func (s *Server) logger(r *http.Request) *slog.Logger {
	l := s.log.With(obs.KeyRequestID, obs.RequestID(r.Context()))
	if cid := r.Header.Get(obs.CampaignIDHeader); cid != "" {
		l = l.With(obs.KeyCampaignID, cid)
	}
	return l
}

// apiError is the typed error body.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// writeError sends the typed error body with the given status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeJSON sends a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody strictly decodes the request body into v (unknown fields are
// rejected, so typos fail loudly instead of being silently ignored). The
// body is size-capped before decoding, so an oversized request is rejected
// before it can allocate.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness answers must never be served stale by an intermediary cache.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, map[string]string{"status": "ok"})
}

// MetricsResponse is the /metrics body. Store is present only on
// store-backed servers; its gauges (results appended, dedupe hits, refs
// snapshot age) are what make fleet convergence observable per node.
type MetricsResponse struct {
	Engine smtmlp.EngineMetrics `json:"engine"`
	Server ServerMetrics        `json:"server"`
	Work   WorkMetrics          `json:"work"`
	Store  *store.Metrics       `json:"store,omitempty"`
	// Tenants is present only on multi-tenant servers: one row per
	// configured tenant, sorted by name.
	Tenants []TenantMetrics `json:"tenants,omitempty"`
	// Latency summarizes the server's latency histograms (count and sum;
	// the full bucket vectors are exposed under /metrics?format=prometheus).
	Latency LatencyMetrics `json:"latency"`
}

// LatencyMetrics are the /metrics summaries of the latency histograms.
type LatencyMetrics struct {
	// Run is the /v1/run engine execution latency; BatchStream the
	// /v1/batch stream duration (first cell to last NDJSON line);
	// LeaseLifetime the accept-to-collection (or expiry) lifetime of work
	// leases; TenantQueueWait the slot-scheduler queue wait (multi-tenant
	// servers only — zero otherwise).
	Run             metrics.HistogramSnapshot `json:"run"`
	BatchStream     metrics.HistogramSnapshot `json:"batch_stream"`
	LeaseLifetime   metrics.HistogramSnapshot `json:"lease_lifetime"`
	TenantQueueWait metrics.HistogramSnapshot `json:"tenant_queue_wait"`
}

// queueWaitHistogram is implemented by slot gates that track queue wait
// (internal/tenant.Scheduler); other gates report an empty histogram.
type queueWaitHistogram interface {
	QueueWaitHistogram() *metrics.Histogram
}

// latencyMetrics snapshots the four histograms.
func (s *Server) latencyMetrics() LatencyMetrics {
	lm := LatencyMetrics{
		Run:           s.runLatency.Snapshot(),
		BatchStream:   s.batchDuration.Snapshot(),
		LeaseLifetime: s.leaseLifetime.Snapshot(),
	}
	if g, ok := s.gate.(queueWaitHistogram); ok {
		lm.TenantQueueWait = g.QueueWaitHistogram().Snapshot()
	}
	return lm
}

// ServerMetrics are the handler-level counters.
type ServerMetrics struct {
	RequestsTotal        int64 `json:"requests_total"`
	BatchesActive        int64 `json:"batches_active"`
	BatchResultsStreamed int64 `json:"batch_results_streamed"`
	ClientsDropped       int64 `json:"clients_dropped"`
	// Unauthorized counts /v1 requests refused for a missing or unknown API
	// key (multi-tenant servers only; a key is a secret, so the counter is
	// global rather than per guessed identity).
	Unauthorized int64 `json:"unauthorized,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Metrics are a point-in-time reading; a cached answer is a wrong answer.
	w.Header().Set("Cache-Control", "no-store")
	resp := MetricsResponse{
		Engine: s.eng.Metrics(),
		Server: ServerMetrics{
			RequestsTotal:        s.requestsTotal.Load(),
			BatchesActive:        s.batchesActive.Load(),
			BatchResultsStreamed: s.batchResults.Load(),
			ClientsDropped:       s.clientsDropped.Load(),
			Unauthorized:         s.unauthorized.Load(),
		},
		Work:    s.workMetrics(),
		Tenants: s.tenantMetrics(),
		Latency: s.latencyMetrics(),
	}
	if s.store != nil {
		m := s.store.Metrics()
		resp.Store = &m
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, resp)
	case "prometheus":
		writePrometheus(w, resp)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"unknown metrics format %q (want json or prometheus)", format)
	}
}

// PoliciesResponse is the /v1/policies body.
type PoliciesResponse struct {
	// Policies lists every implemented policy name.
	Policies []string `json:"policies"`
	// Paper lists the six policies of the paper's main evaluation.
	Paper []string `json:"paper"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	resp := PoliciesResponse{}
	for _, p := range smtmlp.AllPolicies() {
		resp.Policies = append(resp.Policies, p.String())
	}
	for _, p := range smtmlp.Policies() {
		resp.Paper = append(resp.Paper, p.String())
	}
	writeJSON(w, resp)
}

// WorkloadsResponse is the /v1/workloads body.
type WorkloadsResponse struct {
	// Benchmarks lists the Table I catalog.
	Benchmarks []string `json:"benchmarks"`
	// TwoThread and FourThread are the Table II / Table III workloads.
	TwoThread  []smtmlp.Workload `json:"two_thread"`
	FourThread []smtmlp.Workload `json:"four_thread"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, WorkloadsResponse{
		Benchmarks: smtmlp.Benchmarks(),
		TwoThread:  smtmlp.TwoThreadWorkloads(),
		FourThread: smtmlp.FourThreadWorkloads(),
	})
}

// ConfigSpec is the client-facing configuration surface: a small set of
// overrides applied to the Table IV default for the workload's thread count.
// The zero spec is the paper's baseline.
type ConfigSpec struct {
	// Threads overrides the hardware thread count; omitted (0) sizes the
	// machine to the workload. A value that disagrees with the workload's
	// benchmark count is rejected at the engine boundary with an
	// invalid_workload error (every thread runs exactly one benchmark).
	Threads int `json:"threads,omitempty"`
	// ROBSize rescales the out-of-order window (Figure 17/18 style): LSQ,
	// issue queues and rename registers scale proportionally.
	ROBSize int `json:"rob_size,omitempty"`
	// MemLatency overrides the main-memory latency (the paper sweeps
	// 200..800 cycles).
	MemLatency int64 `json:"mem_latency,omitempty"`
	// Prefetch enables/disables the stream-buffer prefetcher; omitted keeps
	// the baseline (enabled).
	Prefetch *bool `json:"prefetch,omitempty"`
}

// config materializes the spec for a workload of the given thread count.
func (c *ConfigSpec) config(threads int) smtmlp.Config {
	if c != nil && c.Threads > 0 {
		threads = c.Threads
	}
	cfg := smtmlp.DefaultConfig(threads)
	if c == nil {
		return cfg
	}
	if c.ROBSize > 0 {
		cfg = cfg.ScaleWindow(c.ROBSize)
	}
	if c.MemLatency > 0 {
		cfg.Mem.MemLatency = c.MemLatency
	}
	if c.Prefetch != nil {
		cfg.Mem.EnablePrefetch = *c.Prefetch
	}
	return cfg
}

// validate bounds-checks the spec.
func (c *ConfigSpec) validate() error {
	if c == nil {
		return nil
	}
	if c.Threads < 0 || c.Threads > 8 {
		return fmt.Errorf("threads %d outside [0, 8]", c.Threads)
	}
	if c.ROBSize < 0 || (c.ROBSize > 0 && c.ROBSize < 16) || c.ROBSize > 4096 {
		return fmt.Errorf("rob_size %d outside [16, 4096]", c.ROBSize)
	}
	if c.MemLatency < 0 || c.MemLatency > 100_000 {
		return fmt.Errorf("mem_latency %d outside [0, 100000]", c.MemLatency)
	}
	return nil
}

// RunRequest is the /v1/run body: one workload under one policy.
type RunRequest struct {
	Benchmarks []string    `json:"benchmarks"`
	Policy     string      `json:"policy"`
	Config     *ConfigSpec `json:"config,omitempty"`
	// TraceInterval opts the run into interval traces: one sample per
	// hardware thread every TraceInterval cycles, returned on the result's
	// threads[].intervals (a bounded ring keeps the tail of long runs).
	// 0 (the default) disables tracing; the knob never changes the
	// simulated outcome or the result's store fingerprint.
	TraceInterval int64 `json:"trace_interval,omitempty"`
}

// validateTraceInterval bounds-checks a trace_interval field.
func validateTraceInterval(w http.ResponseWriter, every int64) bool {
	if every < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"trace_interval %d is negative; use 0 (off) or a positive cycle count", every)
		return false
	}
	return true
}

// checkWorkload validates one benchmark list against the catalog and the
// thread bound, writing the typed error body itself on failure.
func (s *Server) checkWorkload(w http.ResponseWriter, benchmarks []string) bool {
	if len(benchmarks) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "workload has no benchmarks")
		return false
	}
	if len(benchmarks) > s.maxThreads {
		writeError(w, http.StatusBadRequest, CodeTooManyThreads,
			"workload has %d benchmarks, server limit is %d", len(benchmarks), s.maxThreads)
		return false
	}
	for _, b := range benchmarks {
		if !knownBenchmarks[b] {
			writeError(w, http.StatusBadRequest, CodeUnknownBenchmark,
				"unknown benchmark %q (see GET /v1/workloads)", b)
			return false
		}
	}
	return true
}

// knownBenchmarks is the catalog as a set, for O(1) request validation.
var knownBenchmarks = func() map[string]bool {
	m := make(map[string]bool)
	for _, b := range smtmlp.Benchmarks() {
		m[b] = true
	}
	return m
}()

// parsePolicy validates a policy name, writing the typed error body itself
// on failure.
func parsePolicy(w http.ResponseWriter, name string) (smtmlp.Policy, bool) {
	p, err := smtmlp.ParsePolicy(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownPolicy,
			"unknown policy %q (see GET /v1/policies)", name)
		return 0, false
	}
	return p, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.checkWorkload(w, req.Benchmarks) {
		return
	}
	p, ok := parsePolicy(w, req.Policy)
	if !ok {
		return
	}
	if err := req.Config.validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "config: %v", err)
		return
	}
	if !validateTraceInterval(w, req.TraceInterval) {
		return
	}

	// One interactive cell: admission (rate limit + in-flight quota) here,
	// slot scheduling downstream in the engine's gate — interactive class
	// wins the next free engine slot over any tenant's bulk backlog.
	ctx, release, ok := s.admit(w, r, tenant.Interactive, 1)
	if !ok {
		return
	}
	defer release()

	wl := smtmlp.Mix(req.Benchmarks...)
	start := time.Now()
	res, err := s.eng.RunRequest(ctx, smtmlp.Request{
		Config:        req.Config.config(len(req.Benchmarks)),
		Workload:      wl,
		Policy:        p,
		TraceInterval: req.TraceInterval,
	})
	elapsed := time.Since(start)
	s.runLatency.Observe(elapsed)
	switch {
	case errors.Is(err, smtmlp.ErrWorkloadMismatch):
		writeError(w, http.StatusBadRequest, CodeInvalidWorkload, "%v", err)
		return
	case errors.Is(err, smtmlp.ErrCanceled):
		// The request context was canceled: either the client went away (the
		// write below goes nowhere) or the server is draining for shutdown
		// (the client gets a retryable 503). The two are indistinguishable
		// here, so answer as if the client is still listening.
		writeError(w, http.StatusServiceUnavailable, CodeCanceled, "run canceled: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	s.logger(r).Info("run complete",
		"workload", wl.Name(), "policy", req.Policy, "elapsed", elapsed)
	writeJSON(w, res)
}

// BatchRequest is the /v1/batch body: the policy x workload cross-product on
// one configuration point. The server executes (and streams) it policy-major
// — all workloads under the first policy, then the second, ... — so the
// first wave of workers covers distinct benchmarks and warms the reference
// cache as broadly as possible.
type BatchRequest struct {
	Workloads [][]string  `json:"workloads"`
	Policies  []string    `json:"policies"`
	Config    *ConfigSpec `json:"config,omitempty"`
	// TraceInterval opts every cell of the batch into interval traces (see
	// RunRequest.TraceInterval); each NDJSON result line then carries its
	// threads' interval samples. 0 disables.
	TraceInterval int64 `json:"trace_interval,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Workloads) == 0 || len(req.Policies) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"batch needs at least one workload and one policy")
		return
	}
	if n := len(req.Workloads) * len(req.Policies); n > s.maxBatch {
		writeError(w, http.StatusBadRequest, CodeBatchTooLarge,
			"batch of %d simulations exceeds the server limit of %d", n, s.maxBatch)
		return
	}
	policies := make([]smtmlp.Policy, len(req.Policies))
	for i, name := range req.Policies {
		p, ok := parsePolicy(w, name)
		if !ok {
			return
		}
		policies[i] = p
	}
	for _, benchmarks := range req.Workloads {
		if !s.checkWorkload(w, benchmarks) {
			return
		}
	}
	if err := req.Config.validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "config: %v", err)
		return
	}
	if !validateTraceInterval(w, req.TraceInterval) {
		return
	}

	// Policy-major request order: under one policy every workload needs a
	// distinct set of single-threaded references, so the first wave of
	// workers fans across benchmarks and warms the shared cache instead of
	// piling onto one workload's references.
	reqs := make([]smtmlp.Request, 0, len(req.Workloads)*len(req.Policies))
	for _, p := range policies {
		for _, benchmarks := range req.Workloads {
			wl := smtmlp.Mix(benchmarks...)
			reqs = append(reqs, smtmlp.Request{
				Tag:           fmt.Sprintf("%s/%s", wl.Name(), p),
				Config:        req.Config.config(len(benchmarks)),
				Workload:      wl,
				Policy:        p,
				TraceInterval: req.TraceInterval,
			})
		}
	}

	// Bulk admission: one token plus an in-flight reservation for the whole
	// cross-product, held until the stream drains. Each cell still queues
	// for its own engine slot, where interactive traffic outranks it.
	ctx, release, ok := s.admit(w, r, tenant.Bulk, len(reqs))
	if !ok {
		return
	}
	defer release()

	s.batchesActive.Add(1)
	defer s.batchesActive.Add(-1)
	start := time.Now()
	s.streamBatch(ctx, w, reqs)
	elapsed := time.Since(start)
	s.batchDuration.Observe(elapsed)
	s.logger(r).Info("batch streamed", "cells", len(reqs), "elapsed", elapsed)
}

// streamBatch runs the batch and streams one NDJSON line per result, in
// submission order (a tiny reorder buffer holds out-of-order completions).
// Submission-order emission keeps the byte stream deterministic — the
// simulator itself is deterministic, so the same batch always yields the
// identical payload — while results still reach the client incrementally,
// well before the batch finishes. If the client disconnects, the request
// context cancels the batch; the worker pool drains fully (the engine
// guarantees exactly len(reqs) results) before the handler returns.
func (s *Server) streamBatch(ctx context.Context, w http.ResponseWriter, reqs []smtmlp.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Size", fmt.Sprint(len(reqs)))
	flusher, _ := w.(http.Flusher)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ch := s.eng.RunBatch(ctx, reqs)
	pending := make(map[int]smtmlp.BatchResult)
	next := 0
	clientGone := false
	for br := range ch {
		pending[br.Index] = br
		for {
			line, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if clientGone {
				continue
			}
			if err := writeLine(w, line); err != nil {
				// The client stopped reading; cancel the rest of the batch
				// and keep draining the channel so no worker leaks.
				clientGone = true
				s.clientsDropped.Add(1)
				cancel()
				continue
			}
			s.batchResults.Add(1)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// writeLine encodes one NDJSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
