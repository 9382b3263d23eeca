package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// abortLimiter grants dispatches until its budget runs out, then panics in
// the middle of the dispatch stage.
type abortLimiter struct{ left int }

func (l *abortLimiter) Name() string { return "abort" }

func (l *abortLimiter) MayDispatch(*core.Core, int, *core.Uop) bool {
	if l.left--; l.left < 0 {
		panic("test: limiter aborts the cell")
	}
	return true
}

// TestResetAfterAbortedCell aborts cells with a panic — once through
// MaxCycles between steps, once from a limiter mid-dispatch — on a 4-thread
// ROB-512 core with uops in flight, events pending and a trace armed, and
// requires the same core, once reset, to reproduce pinned golden digests.
func TestResetAfterAbortedCell(t *testing.T) {
	want := pinnedKernelDigests(t)
	r := NewRunner(Params{Instructions: kernelGoldenInstructions, Warmup: kernelGoldenWarmup})
	cells := map[string]goldenCell{}
	for _, cell := range kernelGoldenCells() {
		cells[cell.name] = cell
	}
	big := []string{"applu", "galgel", "swim", "mesa"}
	capped := core.DefaultConfig(len(big)).ScaleWindow(512)
	capped.MaxCycles = 3_000
	aborts := []struct {
		name  string
		cfg   core.Config
		limit core.Limiter
	}{
		{"max-cycles", capped, nil},
		{"limiter-panic", core.DefaultConfig(len(big)).ScaleWindow(512), &abortLimiter{left: 2_000}},
	}
	c := new(core.Core)
	for _, abort := range aborts {
		for _, name := range []string{"mcf-galgel/mlpflush-rs", "vortex-parser/icount+dcra/trace250"} {
			c.Reset(abort.cfg, models(big), policy.New(policy.MLPFlush), abort.limit)
			c.EnableIntervalTrace(100)
			if !panics(func() { c.Run(1_000_000) }) {
				t.Fatalf("%s: the cell ran to completion instead of aborting", abort.name)
			}
			cell, ok := cells[name]
			if !ok {
				t.Fatalf("no golden cell %q", name)
			}
			c.Reset(cell.cfg, models(cell.workload), policy.New(cell.kind), cell.limiter)
			if got := resultDigest(t, name, r.runWarm(c, cell.traceEvery)); got != want[name] {
				t.Errorf("after a %s abort, %s does not reproduce its pinned digest", abort.name, name)
			}
		}
	}
}

// panics reports whether fn panicked, recovering the panic.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestRecycledResultOwnsItsMemory requires a Result to encode to the same
// bytes after its core has been reset and has run another cell of the same
// shape, which reuses every buffer the first run had: the Result's profiles
// and interval samples must be its own.
func TestRecycledResultOwnsItsMemory(t *testing.T) {
	c := new(core.Core)
	run := func(mix []string, kind policy.Kind) core.Result {
		c.Reset(core.DefaultConfig(len(mix)), models(mix), policy.New(kind), nil)
		c.EnableIntervalTrace(100)
		return c.Run(3_000)
	}
	first := run([]string{"mcf", "galgel"}, policy.MLPFlush)
	if len(first.Profiles[0]) == 0 || len(first.Intervals[0]) == 0 {
		t.Fatal("the first cell recorded no profile or interval samples; the test checks nothing")
	}
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	run([]string{"vortex", "parser"}, policy.ICount)
	got, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("running another cell on the same core changed an earlier Result")
	}
}

// TestRunBatchMixedShapesMatchesSerial runs cells of 2 and 4 threads with
// ROB 128 and 512 at parallelism 4, so pooled cores pass between goroutines
// and shapes, and requires every result to equal a serial run's. Run it with
// -race -count=10.
func TestRunBatchMixedShapesMatchesSerial(t *testing.T) {
	var reqs []BatchRequest
	for _, mix := range [][]string{{"mcf", "galgel"}, {"applu", "galgel", "swim", "mesa"}} {
		for _, rob := range []int{128, 512} {
			for _, kind := range []policy.Kind{policy.ICount, policy.MLPFlush} {
				reqs = append(reqs, BatchRequest{
					Config:   core.DefaultConfig(len(mix)).ScaleWindow(rob),
					Workload: bench.Workload{Benchmarks: mix},
					Kind:     kind,
				})
			}
		}
	}
	p := Params{Instructions: 2_000, Warmup: 500, Parallelism: 4}
	got := make([]WorkloadResult, len(reqs))
	for br := range NewRunner(p).RunBatch(context.Background(), reqs) {
		if br.Err != nil {
			t.Fatalf("request %d: %v", br.Index, br.Err)
		}
		got[br.Index] = br.Res
	}
	p.Parallelism = 1
	serial := NewRunner(p)
	for i, req := range reqs {
		want, err := serial.RunWorkloadCtx(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d (%s, ROB %d, %s): batch result differs from the serial run",
				i, req.Workload.Name(), req.Config.ROBSize, req.Kind)
		}
	}
}

// TestRecycledCellAllocs gates what a cell allocates on a recycled core.
// After one warm cell of every BenchmarkKernel shape on one core, a cell of
// each shape at the sweep's budget must allocate at most 64 KB: the policy,
// the profile checkpoints and the Result. A new core allocates about 2 MB,
// most of it cache arrays. Bytes are the runtime's cumulative heap
// allocation (MemStats.TotalAlloc, the /gc/heap/allocs:bytes counter), read
// with the per-P allocation caches flushed, so the count is exact; the least
// of three cells is kept, in case another goroutine allocated meanwhile.
// The core is held rather than pooled because under the race detector
// sync.Pool drops a random quarter of what it is given.
func TestRecycledCellAllocs(t *testing.T) {
	const limit = 64 << 10
	r := NewRunner(Params{Instructions: kernelInstructions, Warmup: kernelWarmup})
	c := new(core.Core)
	cell := func(s kernelShape) {
		c.Reset(s.cfg, s.models, policy.New(s.kind), nil)
		r.runWarm(c, 0)
	}
	shapes := kernelShapes()
	for _, s := range shapes {
		cell(s)
	}
	for _, s := range shapes {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cell(s)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > limit {
			t.Errorf("%s: a recycled cell allocated %d bytes, want at most %d", s.name, least, limit)
		}
	}
}
