package sim

import (
	"context"
	"sync"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// BatchRequest is one multiprogrammed simulation in a batch: a configuration
// point, a workload, a fetch policy and an optional resource limiter. Tag is
// caller-chosen and echoed on the result.
type BatchRequest struct {
	Tag      string
	Config   core.Config
	Workload bench.Workload
	Kind     policy.Kind
	Limiter  core.Limiter
	// TraceInterval > 0 enables interval tracing for this request alone;
	// 0 inherits the runner's Params.TraceInterval.
	TraceInterval int64
}

// BatchResult pairs a finished request with its outcome. Index is the
// request's position in the submitted slice, so callers can restore
// deterministic order regardless of completion order; exactly one
// BatchResult is delivered per request.
type BatchResult struct {
	Index int
	Tag   string
	Res   WorkloadResult
	Err   error
}

// RunBatch fans the requests over ForEach and returns a channel of results
// in completion order. The channel is buffered for the whole batch and
// always closes after exactly len(reqs) results, so a batch drains cleanly
// even if the caller stops reading or the context is canceled; once ctx is
// done, requests not yet started complete without simulating, with
// Err = ctx.Err() (simulations already in flight run to completion — an
// individual simulation is at most one laptop-scale unit of work).
//
// Single-threaded references resolve through the runner's RefCache, so a
// policy x workload cross-product computes each reference once no matter
// how the pool interleaves.
func (r *Runner) RunBatch(ctx context.Context, reqs []BatchRequest) <-chan BatchResult {
	out := make(chan BatchResult, len(reqs))
	r.queued.Add(int64(len(reqs)))
	deliver := func(br BatchResult) {
		r.queued.Add(-1)
		out <- br
	}
	go func() {
		started := make([]bool, len(reqs))
		r.ForEach(ctx, len(reqs), func(i int) {
			started[i] = true
			br := BatchResult{Index: i, Tag: reqs[i].Tag}
			br.Res, br.Err = r.RunWorkloadCtx(ctx, reqs[i])
			deliver(br)
		})
		for i, ok := range started {
			if !ok {
				deliver(BatchResult{Index: i, Tag: reqs[i].Tag, Err: ctx.Err()})
			}
		}
		close(out)
	}()
	return out
}

// ForEach calls fn(i) for every i in [0, n), handing indexes out in
// increasing order to at most the runner's Parallelism goroutines, and
// returns once every call has returned. It is the runner's one worker pool.
// Once ctx is done no further index starts (calls in progress run to
// completion), so a caller that needs to tell the skipped indexes apart
// records which ones fn saw.
//
// The calling goroutine feeds the workers over an unbuffered channel, so a
// worker that finishes a call waits for the feeder to be scheduled before it
// asks a SlotGate for its next slot. Under a saturated tenant gate that gap
// is where queued interactive work wins a slot: workers claiming indexes
// from an atomic counter instead raised the median interactive slot wait of
// a two-tenant smtserved on a 2-CPU host from 0 to about 3 ms.
func (r *Runner) ForEach(ctx context.Context, n int, fn func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(r.Params.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() == nil {
					fn(i)
				}
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
