package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// crossProduct builds policy x workload batch requests on one config.
func crossProduct(cfg core.Config, workloads []bench.Workload, kinds []policy.Kind) []BatchRequest {
	var reqs []BatchRequest
	for _, w := range workloads {
		for _, k := range kinds {
			reqs = append(reqs, BatchRequest{Config: cfg, Workload: w, Kind: k})
		}
	}
	return reqs
}

func TestRunBatchMatchesSequential(t *testing.T) {
	cfg := core.DefaultConfig(2)
	workloads := []bench.Workload{
		{Benchmarks: []string{"swim", "twolf"}},
		{Benchmarks: []string{"mcf", "galgel"}},
	}
	kinds := []policy.Kind{policy.ICount, policy.Flush, policy.MLPFlush}
	reqs := crossProduct(cfg, workloads, kinds)

	batch := NewRunner(Params{Instructions: 10_000, Warmup: 2_500, Parallelism: 4})
	got := make([]WorkloadResult, len(reqs))
	seen := make([]bool, len(reqs))
	n := 0
	for br := range batch.RunBatch(context.Background(), reqs) {
		if br.Err != nil {
			t.Fatalf("request %d: %v", br.Index, br.Err)
		}
		if seen[br.Index] {
			t.Fatalf("request %d delivered twice", br.Index)
		}
		seen[br.Index] = true
		got[br.Index] = br.Res
		n++
	}
	if n != len(reqs) {
		t.Fatalf("batch delivered %d results, want %d", n, len(reqs))
	}

	seq := NewRunner(Params{Instructions: 10_000, Warmup: 2_500})
	for i, req := range reqs {
		want, _ := seq.RunWorkloadCtx(context.Background(), req)
		if got[i].STP != want.STP || got[i].ANTT != want.ANTT || got[i].Result.Cycles != want.Result.Cycles {
			t.Fatalf("request %d (%s under %s): batch STP=%v ANTT=%v, sequential STP=%v ANTT=%v",
				i, req.Workload.Name(), req.Kind, got[i].STP, got[i].ANTT, want.STP, want.ANTT)
		}
	}
}

func TestRunBatchCancellationDrains(t *testing.T) {
	cfg := core.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	var reqs []BatchRequest
	for i := 0; i < 24; i++ {
		reqs = append(reqs, BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount})
	}
	r := NewRunner(Params{Instructions: 10_000, Warmup: 2_500, Parallelism: 2})

	ctx, cancel := context.WithCancel(context.Background())
	ch := r.RunBatch(ctx, reqs)
	first := <-ch
	cancel()

	seen := map[int]bool{first.Index: true}
	canceled := 0
	for br := range ch {
		if seen[br.Index] {
			t.Fatalf("request %d delivered twice", br.Index)
		}
		seen[br.Index] = true
		if br.Err != nil {
			if !errors.Is(br.Err, context.Canceled) {
				t.Fatalf("unexpected error: %v", br.Err)
			}
			canceled++
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("batch delivered %d results after cancellation, want all %d", len(seen), len(reqs))
	}
	if canceled == 0 {
		t.Fatal("no request observed the cancellation (batch completed before cancel?)")
	}
}

// TestRunnerGauges exercises the in-flight / queue-depth counters the
// metrics endpoint reports: nonzero while a batch runs, zero once drained.
func TestRunnerGauges(t *testing.T) {
	cfg := core.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	var reqs []BatchRequest
	for i := 0; i < 8; i++ {
		reqs = append(reqs, BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount})
	}
	r := NewRunner(Params{Instructions: 10_000, Warmup: 2_500, Parallelism: 1})
	if r.InFlight() != 0 || r.QueueDepth() != 0 {
		t.Fatalf("fresh runner reports in-flight %d, queued %d", r.InFlight(), r.QueueDepth())
	}

	ch := r.RunBatch(context.Background(), reqs)
	first := <-ch
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	// With one worker and 8 requests, at least 6 are still queued the moment
	// the first result is delivered.
	if depth := r.QueueDepth(); depth < int64(len(reqs))-2 {
		t.Fatalf("queue depth %d right after the first of %d results", depth, len(reqs))
	}
	for range ch {
	}
	if r.InFlight() != 0 || r.QueueDepth() != 0 {
		t.Fatalf("drained runner reports in-flight %d, queued %d", r.InFlight(), r.QueueDepth())
	}
}

// TestForEach pins the shared pool's contract: every index runs exactly
// once, no more than Parallelism calls overlap, and once the context is
// canceled no further index starts.
func TestForEach(t *testing.T) {
	const n, bound = 50, 3
	r := NewRunner(Params{Instructions: 1_000, Parallelism: bound})

	var running, peak atomic.Int64
	calls := make([]atomic.Int32, n)
	r.ForEach(context.Background(), n, func(i int) {
		cur := running.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		calls[i].Add(1)
		running.Add(-1)
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, c)
		}
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("%d calls overlapped, bound is %d", p, bound)
	}

	// Hold the first bound calls until the context is canceled; after that,
	// no further index may start.
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		r.ForEach(ctx, n, func(int) {
			started.Add(1)
			entered <- struct{}{}
			<-release
		})
		close(done)
	}()
	for range bound {
		<-entered
	}
	cancel()
	close(release)
	<-done
	if s := started.Load(); s != bound {
		t.Fatalf("%d indexes started, want only the %d in flight at cancellation", s, bound)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	r := NewRunner(Params{Instructions: 1_000})
	if _, ok := <-r.RunBatch(context.Background(), nil); ok {
		t.Fatal("empty batch produced a result")
	}
}

// TestSharedCacheAcrossRunners verifies the promoted reference cache: two
// runners sharing one RefCache compute each single-threaded reference once,
// and the second runner's results are identical to a cold runner's.
func TestSharedCacheAcrossRunners(t *testing.T) {
	cfg := core.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	p := Params{Instructions: 10_000, Warmup: 2_500}

	shared := NewRefCache(16)
	a := NewRunnerWithCache(p, shared)
	req := BatchRequest{Config: cfg, Workload: w, Kind: policy.MLPFlush}
	warmRes, _ := a.RunWorkloadCtx(context.Background(), req)
	_, missesAfterA, _ := shared.Stats()

	b := NewRunnerWithCache(p, shared)
	sharedRes, _ := b.RunWorkloadCtx(context.Background(), req)
	_, missesAfterB, _ := shared.Stats()
	if missesAfterB != missesAfterA {
		t.Fatalf("second runner recomputed references: misses %d -> %d", missesAfterA, missesAfterB)
	}

	cold, _ := NewRunner(p).RunWorkloadCtx(context.Background(), req)
	if sharedRes.STP != cold.STP || sharedRes.ANTT != cold.ANTT {
		t.Fatalf("shared-cache result STP=%v ANTT=%v differs from cold STP=%v ANTT=%v",
			sharedRes.STP, sharedRes.ANTT, cold.STP, cold.ANTT)
	}
	if warmRes.STP != cold.STP {
		t.Fatalf("first shared-cache result differs from cold: %v vs %v", warmRes.STP, cold.STP)
	}
}
