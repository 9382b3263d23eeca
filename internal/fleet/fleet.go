// Package fleet is the coordinator half of distributed campaign execution:
// it expands a campaign spec, diffs it against the local authoritative
// store, carves the missing cells into leases, and drives a set of remote
// smtserved workers through the pull-based /v1/work protocol — POST
// /v1/work/lease to deliver a batch, long-polling POST /v1/work/complete to
// collect it.
//
// The design premise is that the store's content addressing does the hard
// distributed-systems work. Every cell is identified by its campaign
// fingerprint and the simulator is deterministic, so a lease that is
// retried, double-delivered (a hedge against a straggler), or re-executed
// after a worker dies produces byte-identical results, and the store's
// dedupe-on-append absorbs every repeat. The coordinator therefore never
// needs exactly-once delivery: at-least-once plus dedupe converges to the
// same store bytes as single-node execution, which is the invariant the
// package test proves.
//
// Throughput: the coordinator applies the paper's resource-allocation
// insight one level up — size each worker's outstanding work to its
// measured ability to retire it. Each driver keeps a cells/sec EWMA over
// its completed leases and carves the next lease to a target wall-time
// (clamped), so a fast worker gets proportionally more cells per round
// trip than a slow one instead of lockstep chunks. Drivers are also
// pipelined: up to PipelineDepth leases are in flight per worker, so lease
// N+1 is already executing while lease N is long-polled, eliminating the
// idle gap between leases. The /v1/work wire has one encoding: every
// request body is gzip-compressed, every response is requested
// gzip-encoded, and complete responses stream as NDJSON, decoded with
// server.DecodeCompleteStream.
//
// Ordering: chunks are contiguous slices of the expansion-ordered missing
// cells, carved in chunk-index order, and a reorder buffer commits them
// strictly in that order (each chunk as one store.AppendBatch), mirroring
// how campaign.Run commits in submission order. Adaptive sizing only
// changes where the chunk boundaries fall, never their order, so
// results.ndjson and refs.ndjson both come out byte-identical to a local
// run of the same spec.
//
// Failure handling: a worker that stops answering is probed with
// exponential backoff and, if still unreachable, declared lost — its
// in-flight chunks are requeued to the survivors. Leases carry a TTL so a
// worker never pins memory for a dead coordinator, and drivers heartbeat
// every active lease (an idempotent cells-free re-POST) at TTL/3 so a
// slow-but-alive worker is never cancelled mid-execution; an expired or
// canceled lease is simply re-dispatched. When every worker is lost the
// run fails, keeping everything committed so far (a later -resume fills
// the rest).
package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
)

// Defaults for Options fields left zero.
const (
	// DefaultLeaseSize seeds adaptive sizing (the first lease to a worker
	// with no throughput sample yet) and remains the fixed size used by
	// legacy callers that set LeaseSize explicitly.
	DefaultLeaseSize     = 8
	DefaultLeaseTTL      = 2 * time.Minute
	DefaultLeaseTarget   = 2 * time.Second
	DefaultMaxLeaseSize  = 128
	DefaultPipelineDepth = 2
	DefaultCompleteWait  = 2 * time.Second
	DefaultMaxAttempts   = 4
	DefaultStraggler     = 30 * time.Second

	// ewmaAlpha weights the newest cells/sec sample in a worker's
	// throughput estimate; 0.3 converges in a handful of leases without
	// chasing single-lease noise.
	ewmaAlpha = 0.3

	// idlePoll paces a driver with nothing claimable (and the beat after a
	// lost lease) so it notices requeued or hedgeable work promptly without
	// spinning.
	idlePoll = 25 * time.Millisecond
)

// Options tunes a fleet run. Workers is the only required field.
type Options struct {
	// Workers lists worker base URLs (e.g. "http://host:8080"). Each worker
	// gets one driver goroutine holding up to PipelineDepth leases.
	Workers []string
	// LeaseSize fixes the number of cells per lease. 0 (the default) means
	// adaptive: each lease is sized from the worker's cells/sec EWMA to
	// take about LeaseTarget of wall time, clamped to
	// [MinLeaseSize, MaxLeaseSize].
	LeaseSize int
	// LeaseTarget is the wall time an adaptive lease aims for
	// (0 = DefaultLeaseTarget). Ignored when LeaseSize > 0.
	LeaseTarget time.Duration
	// MinLeaseSize and MaxLeaseSize clamp adaptive sizing
	// (0 = 1 and DefaultMaxLeaseSize). Ignored when LeaseSize > 0.
	MinLeaseSize int
	MaxLeaseSize int
	// PipelineDepth bounds leases in flight per worker
	// (0 = DefaultPipelineDepth; 1 restores serial dispatch). Keep it at or
	// below the worker's -max-leases or top-up POSTs bounce off worker_busy.
	PipelineDepth int
	// LeaseTTL caps how long a worker holds a lease between heartbeats
	// before canceling it (0 = DefaultLeaseTTL). Drivers renew active
	// leases at TTL/4, so it bounds how long a crashed coordinator pins
	// worker memory — not how long a lease may execute.
	LeaseTTL time.Duration
	// CompleteWait is the long-poll duration per collection request
	// (0 = DefaultCompleteWait; the worker caps it server-side at 30s and
	// drivers shorten it to the renewal cadence when the TTL is tighter).
	CompleteWait time.Duration
	// MaxAttempts bounds lease deliveries per chunk (0 = DefaultMaxAttempts);
	// beyond it the run fails rather than loop on a poisoned chunk.
	MaxAttempts int
	// ProbeRetries and ProbeBackoff shape worker health probing after a
	// transport error: ProbeRetries attempts against GET /healthz, sleeping
	// ProbeBackoff, 2x, 4x, ... between them (0 = 3 retries, 100ms base).
	ProbeRetries int
	ProbeBackoff time.Duration
	// StragglerAfter enables hedged re-dispatch: an idle driver re-delivers
	// the oldest chunk that has been in flight longer than this (the store
	// dedupes whichever copy loses). 0 = DefaultStraggler; negative disables.
	StragglerAfter time.Duration
	// Client is the HTTP client (nil = a fresh http.Client). Do not set a
	// global timeout shorter than CompleteWait: collection long-polls.
	Client *http.Client
	// Progress, when set, is invoked after every committed chunk. Calls are
	// sequential.
	Progress func(campaign.Progress)
	// Eventf, when set, receives human-readable fleet events (worker lost,
	// lease retried, hedged re-dispatch). Calls are serialized.
	Eventf func(format string, args ...any)
	// Logger receives structured lease-lifecycle logs (dispatch, renew,
	// collect, retry). Every line carries the run's campaign_id plus the
	// per-delivery request_id that also travels to the worker in the
	// X-Request-Id header, so coordinator and worker logs join on the same
	// values. Nil discards everything.
	Logger *slog.Logger
}

// WorkerStats reports one worker's view of a finished run.
type WorkerStats struct {
	Worker string `json:"worker"`
	// Leases and Cells count completed collections credited to this worker
	// (hedge losers and lost leases are not credited).
	Leases int `json:"leases"`
	Cells  int `json:"cells"`
	// CellsPerSec is the final throughput EWMA; LeaseSize is the adaptive
	// size the next lease would have used (the fixed size under -lease-size).
	CellsPerSec float64 `json:"cells_per_sec"`
	LeaseSize   int     `json:"lease_size"`
	// PeakDepth is the most leases this worker held in flight at once.
	PeakDepth int `json:"peak_depth"`
}

// Summary reports a finished (or failed) fleet run.
type Summary struct {
	Name string `json:"name,omitempty"`
	// Total is the grid size; Skipped cells were already in the store;
	// Executed cells ran remotely and were committed; Failed cells failed
	// deterministically on a worker (not persisted, exactly like local
	// execution skips them).
	Total    int `json:"total"`
	Skipped  int `json:"skipped"`
	Executed int `json:"executed"`
	Failed   int `json:"failed"`
	// Duplicates counts result cells absorbed by dedupe (hedged leases,
	// re-deliveries after a lost collection, races with other writers).
	Duplicates int `json:"duplicates"`
	// LeasesDispatched counts every lease delivery, including hedges and
	// retries; LeasesRenewed counts heartbeat re-POSTs that extended a
	// lease TTL; LeasesRetried counts chunks requeued after a lost,
	// expired, canceled or busy lease; WorkersLost counts workers declared
	// dead.
	LeasesDispatched int `json:"leases_dispatched"`
	LeasesRenewed    int `json:"leases_renewed"`
	LeasesRetried    int `json:"leases_retried"`
	WorkersLost      int `json:"workers_lost"`
	// RefsMerged counts reference profiles newly persisted to the store.
	RefsMerged int `json:"refs_merged"`
	// Wire accounting for /v1/work traffic: BytesOut/BytesIn are JSON
	// payload bytes sent/received, BytesOutWire/BytesInWire what actually
	// crossed the wire after gzip.
	BytesOut     int64 `json:"bytes_out"`
	BytesOutWire int64 `json:"bytes_out_wire"`
	BytesIn      int64 `json:"bytes_in"`
	BytesInWire  int64 `json:"bytes_in_wire"`
	// Workers reports per-worker throughput, in Options.Workers order.
	Workers []WorkerStats `json:"workers,omitempty"`
}

// Run executes the spec's missing cells across the workers and commits the
// results to the local store. On return the store holds everything that
// committed — also on failure or cancellation, so re-running (or falling
// back to local cmd/smtsweep -resume) completes the grid. The returned
// error matches smtmlp.ErrCanceled when ctx was canceled.
func Run(ctx context.Context, st *store.Store, spec campaign.Spec, opts Options) (Summary, error) {
	sum := Summary{Name: spec.Name}
	if len(opts.Workers) == 0 {
		return sum, errors.New("fleet: no workers")
	}
	if opts.LeaseTarget <= 0 {
		opts.LeaseTarget = DefaultLeaseTarget
	}
	if opts.MinLeaseSize <= 0 {
		opts.MinLeaseSize = 1
	}
	if opts.MaxLeaseSize <= 0 {
		opts.MaxLeaseSize = DefaultMaxLeaseSize
	}
	if opts.MaxLeaseSize < opts.MinLeaseSize {
		opts.MaxLeaseSize = opts.MinLeaseSize
	}
	if opts.PipelineDepth <= 0 {
		opts.PipelineDepth = DefaultPipelineDepth
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.CompleteWait <= 0 {
		opts.CompleteWait = DefaultCompleteWait
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.ProbeRetries <= 0 {
		opts.ProbeRetries = 3
	}
	if opts.ProbeBackoff <= 0 {
		opts.ProbeBackoff = 100 * time.Millisecond
	}
	if opts.StragglerAfter == 0 {
		opts.StragglerAfter = DefaultStraggler
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}

	cells, total, err := campaign.MissingCells(st, spec)
	if err != nil {
		return sum, err
	}
	sum.Total = total
	sum.Skipped = total - len(cells)
	if opts.Progress != nil {
		opts.Progress(campaign.Progress{Total: sum.Total, Skipped: sum.Skipped})
	}
	if len(cells) == 0 {
		return sum, nil
	}

	instructions, warmup := spec.Params()
	runID := newRunID()
	logger := opts.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	c := &coord{
		st:           st,
		cells:        cells,
		instructions: instructions,
		warmup:       warmup,
		opts:         opts,
		runID:        runID,
		log:          logger.With(obs.KeyCampaignID, runID),
		inflight:     make(map[int]*flight),
		finished:     make(map[int][]server.WorkResult),
		refs:         make(map[string]smtmlp.RefProfile),
		sum:          &sum,
		live:         len(opts.Workers),
		done:         make(chan struct{}),
	}

	bootstrap := opts.LeaseSize
	if bootstrap <= 0 {
		bootstrap = clamp(DefaultLeaseSize, opts.MinLeaseSize, opts.MaxLeaseSize)
	}
	workers := make([]*workerState, len(opts.Workers))
	for i, w := range opts.Workers {
		workers[i] = &workerState{base: strings.TrimRight(w, "/"), size: bootstrap}
	}

	// Drivers get a context canceled the moment the run ends (all chunks
	// committed, or failed), so in-flight hedge duplicates stop promptly
	// instead of long-polling a result nobody will commit.
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	go func() {
		select {
		case <-c.done:
			dcancel()
		case <-dctx.Done():
		}
	}()

	var wg sync.WaitGroup
	for _, ws := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.driver(dctx, ws)
		}()
	}
	wg.Wait()

	// Persist the reference profiles gathered so far — also on failure, so
	// the next attempt warm-starts from them.
	refs := make([]smtmlp.RefProfile, 0, len(c.refs))
	for _, r := range c.refs {
		refs = append(refs, r)
	}
	saved, mergeErr := st.MergeRefs(refs)
	sum.RefsMerged = saved

	sum.LeasesRenewed = int(c.renewed.Load())
	sum.BytesOut = c.bytesOut.Load()
	sum.BytesOutWire = c.bytesOutWire.Load()
	sum.BytesIn = c.bytesIn.Load()
	sum.BytesInWire = c.bytesInWire.Load()
	sum.Workers = make([]WorkerStats, len(workers))
	for i, ws := range workers {
		sum.Workers[i] = WorkerStats{
			Worker: ws.base, Leases: ws.leases, Cells: ws.cellsDone,
			CellsPerSec: ws.ewma, LeaseSize: ws.size, PeakDepth: ws.peak,
		}
	}

	c.mu.Lock()
	runErr := c.runErr
	complete := c.next == len(c.chunks) && c.carve == len(c.cells)
	remaining := len(c.chunks) - c.next + (len(c.cells) - c.carve)
	c.mu.Unlock()
	if runErr == nil && !complete {
		if ctx.Err() != nil {
			runErr = fmt.Errorf("fleet: %w", smtmlp.ErrCanceled)
		} else {
			runErr = fmt.Errorf("fleet: run stopped with work for %d chunks/cells uncommitted", remaining)
		}
	}
	if runErr == nil {
		runErr = mergeErr
	}
	return sum, runErr
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// workerState is one driver's private view of its worker: the throughput
// EWMA behind adaptive sizing and pipeline accounting. Only its own driver
// goroutine mutates it (claim reads size under c.mu, but claim is only ever
// called by that driver); Run reads it after all drivers exit.
type workerState struct {
	base      string
	ewma      float64 // cells/sec, 0 until the first completed lease
	size      int     // next adaptive lease size (fixed size under LeaseSize>0)
	leases    int
	cellsDone int
	depth     int
	peak      int
}

// observe folds one completed lease into the worker's throughput estimate
// and recomputes the adaptive size. Under pipelining the elapsed time of
// overlapping leases overstates per-lease latency (the worker splits
// itself across PipelineDepth leases), but it does so by the same factor
// on every worker, so relative sizing — the thing that matters for
// balancing heterogeneous workers — still converges.
func (c *coord) observe(ws *workerState, al *activeLease) {
	elapsed := time.Since(al.sent).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	sample := float64(al.cells) / elapsed
	if ws.ewma == 0 {
		ws.ewma = sample
	} else {
		ws.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*ws.ewma
	}
	ws.leases++
	ws.cellsDone += al.cells
	if c.opts.LeaseSize > 0 {
		return
	}
	c.mu.Lock()
	ws.size = clamp(int(ws.ewma*c.opts.LeaseTarget.Seconds()+0.5), c.opts.MinLeaseSize, c.opts.MaxLeaseSize)
	c.mu.Unlock()
}

// flight tracks one chunk currently leased out.
type flight struct {
	started time.Time
	holders map[*workerState]bool
}

// span is one chunk's contiguous cell range: c.cells[lo:hi].
type span struct{ lo, hi int }

// coord is the shared state of one fleet run.
type coord struct {
	st           *store.Store
	cells        []campaign.Cell
	instructions uint64
	warmup       uint64
	opts         Options
	runID        string
	log          *slog.Logger // always bound to campaign_id = runID

	mu       sync.Mutex
	carve    int    // cells [0, carve) have been carved into chunks
	chunks   []span // carved chunks, in expansion order; grows during the run
	queue    []int  // chunk indexes awaiting re-dispatch, FIFO
	attempts []int  // lease deliveries per chunk
	inflight map[int]*flight
	finished map[int][]server.WorkResult // collected, awaiting the cursor
	next     int                         // commit cursor: chunks [0, next) are in the store
	refs     map[string]smtmlp.RefProfile
	sum      *Summary
	live     int
	runErr   error
	closed   bool
	seq      int
	done     chan struct{}

	renewed      atomic.Int64
	bytesOut     atomic.Int64 // JSON request bytes
	bytesOutWire atomic.Int64 // request bytes on the wire
	bytesIn      atomic.Int64 // JSON response bytes
	bytesInWire  atomic.Int64 // response bytes on the wire

	eventMu sync.Mutex
}

func newRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "fleet"
	}
	return hex.EncodeToString(b[:])
}

func (c *coord) eventf(format string, args ...any) {
	if c.opts.Eventf == nil {
		return
	}
	c.eventMu.Lock()
	defer c.eventMu.Unlock()
	c.opts.Eventf(format, args...)
}

// claim hands the worker its next chunk: a requeued chunk from the head of
// the queue, else a fresh chunk carved from the uncarved tail at the
// worker's current adaptive size, else — when hedging is enabled — the
// oldest straggling in-flight chunk this worker is not already running.
// Every claim gets a fresh lease ID: lease IDs are idempotency keys on the
// worker, so a re-delivery after cancellation must not collide with the
// dead lease. The returned cell slice aliases the immutable expansion
// order, so it is safe to use outside the lock.
func (c *coord) claim(ws *workerState) (idx int, cells []campaign.Cell, leaseID string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, "", false
	}
	hedged := false
	switch {
	case len(c.queue) > 0:
		idx = c.queue[0]
		c.queue = c.queue[1:]
	case c.carve < len(c.cells):
		chunk := campaign.Carve(c.cells, c.carve, ws.size)
		idx = len(c.chunks)
		c.chunks = append(c.chunks, span{c.carve, c.carve + len(chunk)})
		c.attempts = append(c.attempts, 0)
		c.carve += len(chunk)
	default:
		if c.opts.StragglerAfter < 0 {
			return 0, nil, "", false
		}
		best := -1
		for i, f := range c.inflight {
			if f.holders[ws] || time.Since(f.started) < c.opts.StragglerAfter {
				continue
			}
			if best == -1 || f.started.Before(c.inflight[best].started) {
				best = i
			}
		}
		if best == -1 {
			return 0, nil, "", false
		}
		idx = best
		hedged = true
	}
	f := c.inflight[idx]
	if f == nil {
		f = &flight{started: time.Now(), holders: make(map[*workerState]bool, 1)}
		c.inflight[idx] = f
	}
	f.holders[ws] = true
	c.attempts[idx]++
	c.seq++
	leaseID = fmt.Sprintf("%s-%d.%d", c.runID, idx, c.seq)
	c.sum.LeasesDispatched++
	sp := c.chunks[idx]
	cells = c.cells[sp.lo:sp.hi:sp.hi]
	if hedged {
		go c.eventf("fleet: hedging straggler chunk %d on %s as lease %s", idx, ws.base, leaseID)
	}
	return idx, cells, leaseID, true
}

// release drops the worker's hold on a chunk that did not complete. If no
// hedge partner still holds it and it is not already committed, the chunk
// goes back to the front of the queue (front, so the commit cursor unblocks
// as soon as possible); a chunk that exhausted its attempts fails the run.
func (c *coord) release(idx int, ws *workerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.inflight[idx]
	if f != nil {
		if !f.holders[ws] {
			return // already released (driver exit path)
		}
		delete(f.holders, ws)
	}
	if idx < c.next || c.finished[idx] != nil {
		return // already collected elsewhere
	}
	if f != nil && len(f.holders) > 0 {
		return // a hedge partner is still running it
	}
	delete(c.inflight, idx)
	if c.attempts[idx] >= c.opts.MaxAttempts {
		c.closeLocked(fmt.Errorf("fleet: chunk %d failed after %d lease attempts", idx, c.attempts[idx]))
		return
	}
	c.queue = append([]int{idx}, c.queue...)
	c.sum.LeasesRetried++
}

// overtaken reports whether a chunk has already been collected or committed
// (a hedge partner won); drivers use it to abandon a redundant lease
// instead of polling and renewing it to completion.
func (c *coord) overtaken(idx int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return idx < c.next || c.finished[idx] != nil
}

// finish records a collected lease and advances the commit cursor. A chunk
// already collected (a hedge or re-delivery landing second) is discarded —
// the store would have deduplicated it anyway; discarding just skips the
// no-op write.
func (c *coord) finish(idx int, ws *workerState, results []server.WorkResult, refs []smtmlp.RefProfile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.inflight[idx]; f != nil {
		delete(f.holders, ws)
		if len(f.holders) == 0 {
			delete(c.inflight, idx)
		}
	}
	if idx < c.next || c.finished[idx] != nil {
		c.sum.Duplicates += len(results)
		return
	}
	c.finished[idx] = results
	for _, r := range refs {
		if _, ok := c.refs[r.Key]; !ok {
			c.refs[r.Key] = r
		}
	}
	c.advanceLocked()
}

// advanceLocked commits every consecutive finished chunk at the cursor, each
// as one atomic batch append, preserving expansion order end to end.
func (c *coord) advanceLocked() {
	for {
		results, ok := c.finished[c.next]
		if !ok {
			break
		}
		delete(c.finished, c.next)
		recs := make([]store.Record, 0, len(results))
		failed := 0
		for _, wr := range results {
			if wr.Error != "" || wr.Result == nil {
				failed++
				continue
			}
			recs = append(recs, store.Record{
				Fingerprint: wr.Fingerprint,
				Request:     wr.Request,
				Result:      *wr.Result,
			})
		}
		fresh, err := c.st.AppendBatch(recs)
		if err != nil {
			c.closeLocked(fmt.Errorf("fleet: persisting chunk %d: %w", c.next, err))
			return
		}
		c.sum.Executed += len(recs)
		c.sum.Duplicates += len(recs) - fresh
		c.sum.Failed += failed
		c.next++
		if c.opts.Progress != nil {
			c.opts.Progress(campaign.Progress{Total: c.sum.Total, Skipped: c.sum.Skipped,
				Executed: c.sum.Executed, Failed: c.sum.Failed})
		}
	}
	if c.next == len(c.chunks) && c.carve == len(c.cells) {
		c.closeLocked(nil)
	}
}

// closeLocked ends the run (idempotently), keeping the first error.
func (c *coord) closeLocked(err error) {
	if err != nil && c.runErr == nil {
		c.runErr = err
	}
	if !c.closed {
		c.closed = true
		close(c.done)
	}
}

func (c *coord) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked(err)
}

// loseWorker retires a worker that failed its health probes. When the last
// worker dies with work outstanding, the run fails (everything committed so
// far stays committed).
func (c *coord) loseWorker(ws *workerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sum.WorkersLost++
	c.live--
	if c.live == 0 && (c.next < len(c.chunks) || c.carve < len(c.cells)) {
		c.closeLocked(fmt.Errorf("fleet: all %d workers lost with work uncommitted", len(c.opts.Workers)))
	}
}

// errLeaseLost marks a lease that ended without results (canceled, expired,
// unknown to the worker, or refused busy): requeue and move on.
var errLeaseLost = errors.New("fleet: lease lost")

// transportError marks a network-level failure talking to a worker; it
// triggers the health-probe path rather than a simple requeue.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// activeLease is one lease in a driver's pipeline.
type activeLease struct {
	idx       int
	leaseID   string
	requestID string // correlation ID of this delivery; fresh per dispatch
	cells     int
	sent      time.Time
	renewed   time.Time
}

// driver runs one worker as a bounded pipeline: keep up to PipelineDepth
// leases posted (so the worker is already executing lease N+1 while lease
// N is collected), heartbeat every active lease at TTL/3, and long-poll
// the oldest lease; on trouble, requeue and either retry, probe, or retire
// the worker. recoverLease classifies an error after its lease has been
// dropped from the pipeline; false means the driver must exit (remaining
// pipeline entries are released by the deferred cleanup).
func (c *coord) driver(ctx context.Context, ws *workerState) {
	// Heartbeat at TTL/4 (not /3): a renewal can lag one long-poll plus
	// scheduler jitter behind its due time, and it must still land well
	// inside the worker's deadline.
	renewEvery := c.opts.LeaseTTL / 4
	wait := c.opts.CompleteWait
	if wait > renewEvery {
		wait = renewEvery // poll often enough to heartbeat the pipeline
	}
	var act []*activeLease
	defer func() {
		for _, al := range act {
			c.release(al.idx, ws)
		}
	}()

	recoverLease := func(idx int, err error) bool {
		var te *transportError
		switch {
		case ctx.Err() != nil:
			return false
		case errors.Is(err, errLeaseLost):
			c.eventf("fleet: %v; requeued chunk %d", err, idx)
			c.log.Warn("lease lost; chunk requeued", "chunk", idx, "worker", ws.base, "err", err)
			return c.sleep(ctx, idlePoll)
		case errors.As(err, &te):
			c.eventf("fleet: worker %s unreachable (%v); probing", ws.base, te.err)
			if !c.probe(ctx, ws.base) {
				c.eventf("fleet: worker %s lost; its chunks requeue to survivors", ws.base)
				c.log.Warn("worker lost", "worker", ws.base, "err", te.err)
				c.loseWorker(ws)
				return false
			}
			c.eventf("fleet: worker %s recovered", ws.base)
			return true
		default:
			// A protocol-level rejection (validation, version skew): every
			// worker would refuse the same lease, so retrying is pointless.
			c.fail(fmt.Errorf("fleet: worker %s rejected chunk %d: %w", ws.base, idx, err))
			return false
		}
	}

	for {
		select {
		case <-c.done:
			return
		case <-ctx.Done():
			return
		default:
		}

		// Top up the pipeline.
		for len(act) < c.opts.PipelineDepth {
			idx, cells, leaseID, ok := c.claim(ws)
			if !ok {
				break
			}
			al, err := c.sendLease(ctx, ws, cells, leaseID)
			if err != nil {
				c.release(idx, ws)
				if !recoverLease(idx, err) {
					return
				}
				break // re-claim on the next beat rather than hammering
			}
			al.idx = idx
			act = append(act, al)
			if len(act) > ws.peak {
				ws.peak = len(act)
			}
		}
		if len(act) == 0 {
			if !c.sleep(ctx, idlePoll) {
				return
			}
			continue
		}

		// Heartbeat every active lease that is due, head included: complete
		// long-polls deliberately do not renew (expiry must win against a
		// coordinator that merely polls), so execution outliving the TTL
		// survives only through these re-POSTs.
		stumbled := false
		for i := 0; i < len(act); {
			al := act[i]
			if time.Since(al.renewed) < renewEvery {
				i++
				continue
			}
			if err := c.renewLease(ctx, ws, al); err != nil {
				act = append(act[:i], act[i+1:]...)
				c.release(al.idx, ws)
				if !recoverLease(al.idx, err) {
					return
				}
				stumbled = true
				break
			}
			i++
		}
		if stumbled || len(act) == 0 {
			continue
		}

		// Long-poll the pipeline head.
		head := act[0]
		out, done, err := c.pollLease(ctx, ws, head, wait)
		switch {
		case err != nil:
			act = act[1:]
			c.release(head.idx, ws)
			if !recoverLease(head.idx, err) {
				return
			}
		case done:
			c.finish(head.idx, ws, out.results, out.refs)
			c.observe(ws, head)
			c.log.Info("lease collected",
				obs.KeyLeaseID, head.leaseID, obs.KeyRequestID, head.requestID,
				"worker", ws.base, "cells", head.cells)
			act = act[1:]
		case c.overtaken(head.idx):
			// A hedge partner already delivered this chunk: stop polling and
			// renewing; the worker-side TTL reclaims the redundant lease.
			act = act[1:]
			c.release(head.idx, ws)
		}
	}
}

// sleep waits d, or returns false if the run or context ended first.
func (c *coord) sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.done:
		return false
	case <-ctx.Done():
		return false
	}
}

// leaseOut is a collected lease.
type leaseOut struct {
	results []server.WorkResult
	refs    []smtmlp.RefProfile
}

// sendLease delivers one chunk as a lease (202 accept; execution is async
// worker-side). The caller owns the returned activeLease's idx field.
func (c *coord) sendLease(ctx context.Context, ws *workerState, chunk []campaign.Cell, leaseID string) (*activeLease, error) {
	cells := make([]server.WorkCell, len(chunk))
	for i, cell := range chunk {
		cells[i] = server.WorkCell{Fingerprint: cell.Fingerprint, Request: cell.Request}
	}
	// The throughput clock starts before the POST: delivery time is part of
	// what a lease costs on this worker, so it belongs in the EWMA that
	// sizes the next one.
	start := time.Now()
	// Every delivery — including a retry of the same chunk — is a new unit
	// of work on the wire and gets a fresh request ID; the campaign ID stays
	// constant across the whole run.
	requestID := obs.NewRequestID()
	var status server.LeaseStatus
	apiErr, err := c.workPost(ctx, ws, "/v1/work/lease", requestID, server.LeaseRequest{
		LeaseID:      leaseID,
		Instructions: c.instructions,
		Warmup:       c.warmup,
		TTLMillis:    c.opts.LeaseTTL.Milliseconds(),
		Cells:        cells,
	}, &status)
	if err != nil {
		return nil, &transportError{err}
	}
	if apiErr != nil {
		if apiErr.Code == server.CodeWorkerBusy {
			return nil, fmt.Errorf("%w: worker %s busy", errLeaseLost, ws.base)
		}
		return nil, apiErr
	}
	c.log.Info("lease dispatched",
		obs.KeyLeaseID, leaseID, obs.KeyRequestID, requestID,
		"worker", ws.base, "cells", len(cells))
	return &activeLease{leaseID: leaseID, requestID: requestID, cells: len(cells), sent: start, renewed: time.Now()}, nil
}

// renewLease heartbeats one lease: an idempotent cells-free re-POST of its
// lease ID, which the worker answers by resetting the TTL and returning the
// live snapshot. Any structured refusal means the lease is gone worker-side
// (expired and forgotten → the cells-free body fails validation as a new
// lease), so it maps to errLeaseLost rather than a run failure.
func (c *coord) renewLease(ctx context.Context, ws *workerState, al *activeLease) error {
	var status server.LeaseStatus
	apiErr, err := c.workPost(ctx, ws, "/v1/work/lease", al.requestID, server.LeaseRequest{
		LeaseID:   al.leaseID,
		TTLMillis: c.opts.LeaseTTL.Milliseconds(),
	}, &status)
	if err != nil {
		return &transportError{err}
	}
	if apiErr != nil {
		return fmt.Errorf("%w: lease %s gone from worker %s (%v)", errLeaseLost, al.leaseID, ws.base, apiErr)
	}
	switch status.Status {
	case "running", "done":
		al.renewed = time.Now()
		c.renewed.Add(1)
		c.log.Debug("lease renewed",
			obs.KeyLeaseID, al.leaseID, obs.KeyRequestID, al.requestID, "worker", ws.base)
		return nil
	default: // "canceled", "expired"
		return fmt.Errorf("%w: lease %s %s on worker %s", errLeaseLost, al.leaseID, status.Status, ws.base)
	}
}

// pollLease issues one long-poll against a lease. done reports collection;
// (zero, false, nil) means the lease is still running.
func (c *coord) pollLease(ctx context.Context, ws *workerState, al *activeLease, wait time.Duration) (leaseOut, bool, error) {
	var resp server.CompleteResponse
	apiErr, err := c.workPost(ctx, ws, "/v1/work/complete", al.requestID, server.CompleteRequest{
		LeaseID:    al.leaseID,
		WaitMillis: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return leaseOut{}, false, &transportError{err}
	}
	if apiErr != nil {
		if apiErr.Code == server.CodeUnknownLease {
			return leaseOut{}, false, fmt.Errorf("%w: lease %s gone from worker %s", errLeaseLost, al.leaseID, ws.base)
		}
		return leaseOut{}, false, apiErr
	}
	switch resp.Lease.Status {
	case "done":
		return leaseOut{results: resp.Results, refs: resp.Refs}, true, nil
	case "running":
		return leaseOut{}, false, nil
	default: // "canceled", "expired"
		return leaseOut{}, false, fmt.Errorf("%w: lease %s %s on worker %s", errLeaseLost, al.leaseID, resp.Lease.Status, ws.base)
	}
}

// apiError is a worker's structured error envelope.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("HTTP %d %s: %s", e.Status, e.Code, e.Message)
}

// countReader counts bytes as they stream through.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// workPost sends one /v1/work request on the one wire encoding: a
// gzip-compressed JSON body, a gzip-encoded response, and — for
// /v1/work/complete — an NDJSON response decoded with
// server.DecodeCompleteStream. It returns (nil, nil) with out decoded on a
// 2xx, the worker's error envelope on any other status, and a plain error
// on a network-level failure. Payload and wire byte counts feed the run
// summary.
func (c *coord) workPost(ctx context.Context, ws *workerState, path, requestID string, in, out any) (*apiError, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("encoding %s body: %w", path, err)
	}
	var zbody bytes.Buffer
	zw := gzip.NewWriter(&zbody)
	zw.Write(body) // into a bytes.Buffer, so neither call can fail
	zw.Close()
	c.bytesOut.Add(int64(len(body)))
	c.bytesOutWire.Add(int64(zbody.Len()))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ws.base+path, &zbody)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	// Correlation IDs: the per-delivery request ID and the run-constant
	// campaign ID, which the worker attaches to its own logs and lease state.
	req.Header.Set(obs.RequestIDHeader, requestID)
	req.Header.Set(obs.CampaignIDHeader, c.runID)
	// Setting Accept-Encoding explicitly disables the transport's hidden
	// auto-gzip, so the wire counters see what actually crossed the wire.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	wire := &countReader{r: io.LimitReader(resp.Body, 64<<20)}
	defer func() {
		c.bytesInWire.Add(wire.n)
	}()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		data, err := io.ReadAll(wire)
		if err != nil {
			return nil, err
		}
		c.bytesIn.Add(int64(len(data)))
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.Unmarshal(data, &env) // a non-JSON error body still reports the status
		return &apiError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}, nil
	}

	var stream io.Reader = wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(wire)
		if err != nil {
			return nil, fmt.Errorf("decoding %s response: %w", path, err)
		}
		defer zr.Close()
		stream = zr
	}
	payload := &countReader{r: stream}
	defer func() {
		c.bytesIn.Add(payload.n)
	}()
	if cr, ok := out.(*server.CompleteResponse); ok {
		*cr, err = server.DecodeCompleteStream(payload)
		return nil, err
	}
	if err := json.NewDecoder(payload).Decode(out); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return nil, nil
}

// probe checks worker health with exponential backoff after a transport
// error. True means the worker answered /healthz and the driver may resume.
func (c *coord) probe(ctx context.Context, base string) bool {
	backoff := c.opts.ProbeBackoff
	for i := 0; i < c.opts.ProbeRetries; i++ {
		if !c.sleep(ctx, backoff) {
			return false
		}
		backoff *= 2
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return false
		}
		resp, err := c.opts.Client.Do(req)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}
