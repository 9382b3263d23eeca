package sim

import (
	"context"
	"math"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/metrics"
	"smtmlp/internal/policy"
)

func testRunner() *Runner {
	return NewRunner(Params{Instructions: 20_000, Warmup: 5_000})
}

func TestDefaultParams(t *testing.T) {
	r := NewRunner(Params{})
	if r.Params.Instructions == 0 {
		t.Fatal("zero params not defaulted")
	}
	if r.Params.warmup() != r.Params.Instructions/4 {
		t.Fatal("default warmup is not budget/4")
	}
	p := Params{Instructions: 100, Warmup: 7}
	if p.warmup() != 7 {
		t.Fatal("explicit warmup ignored")
	}
}

// TestNewRunnerPreservesParams is the regression test for the historical bug
// where a zero Instructions budget made NewRunner replace the entire Params
// with DefaultParams(), silently discarding caller-set Warmup/Parallelism.
func TestNewRunnerPreservesParams(t *testing.T) {
	r := NewRunner(Params{Warmup: 7_000, Parallelism: 3})
	if r.Params.Instructions != DefaultParams().Instructions {
		t.Fatalf("Instructions %d not defaulted", r.Params.Instructions)
	}
	if r.Params.Warmup != 7_000 {
		t.Fatalf("caller-set Warmup discarded: %d", r.Params.Warmup)
	}
	if r.Params.Parallelism != 3 {
		t.Fatalf("caller-set Parallelism discarded: %d", r.Params.Parallelism)
	}
}

func TestRunSingleCompletes(t *testing.T) {
	r := testRunner()
	_, res, _ := r.RunSingleCtx(context.Background(), core.DefaultConfig(1), "gcc")
	if res.Committed[0] < 20_000 {
		t.Fatalf("committed %d < budget", res.Committed[0])
	}
	if res.IPC[0] <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func TestSTReferenceCached(t *testing.T) {
	r := testRunner()
	cfg := core.DefaultConfig(2)
	ctx := context.Background()
	a, _ := r.STReferenceCtx(ctx, cfg, "gcc")
	b, _ := r.STReferenceCtx(ctx, cfg, "gcc")
	if a != b {
		t.Fatal("single-thread reference not cached")
	}
	// A different memory latency is a different reference.
	cfg2 := cfg
	cfg2.Mem.MemLatency = 800
	if c, _ := r.STReferenceCtx(ctx, cfg2, "gcc"); c == a {
		t.Fatal("different config shared a cached reference")
	}
}

func TestCPIAtInterpolation(t *testing.T) {
	prof := &STProfile{
		Benchmark: "x",
		Result: core.Result{
			IPC: []float64{0.5},
			Profiles: [][]core.ProfilePoint{{
				{Instructions: 100, Cycles: 200},
				{Instructions: 200, Cycles: 500},
			}},
		},
	}
	if got := prof.CPIAt(100); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("CPIAt(100) = %v, want 2.0", got)
	}
	// Between checkpoints: cumulative cycles interpolate linearly, so at
	// n=150 cycles = 200 + (500-200)*(150-100)/(200-100) = 350 and
	// CPI = 350/150 = 7/3 — not the 2.5 a snap-to-next-checkpoint gives.
	if got := prof.CPIAt(150); math.Abs(got-7.0/3.0) > 1e-9 {
		t.Fatalf("CPIAt(150) = %v, want 7/3 (linear interpolation)", got)
	}
	// Below the first checkpoint: interpolate from the origin.
	if got := prof.CPIAt(50); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("CPIAt(50) = %v, want 2.0", got)
	}
	// Beyond the profile: final cumulative CPI.
	if got := prof.CPIAt(10_000); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("CPIAt(10000) = %v, want 2.5", got)
	}
	// Zero instructions: fall back to overall CPI.
	if got := prof.CPIAt(0); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("CPIAt(0) = %v, want 1/IPC = 2.0", got)
	}
}

func TestRunWorkloadMetricsConsistent(t *testing.T) {
	r := testRunner()
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	res, _ := r.RunWorkloadCtx(context.Background(), BatchRequest{Config: core.DefaultConfig(2), Workload: w, Kind: policy.MLPFlush})
	if res.STP <= 0 || res.STP > 2 {
		t.Fatalf("STP %v out of (0, 2] for a 2-thread workload", res.STP)
	}
	if res.ANTT < 1 {
		t.Fatalf("ANTT %v < 1: multithreading cannot beat the dedicated machine here", res.ANTT)
	}
	// Cross-check against the metrics package from the recorded CPI pairs.
	if math.Abs(res.STP-metrics.STP(res.PerThread)) > 1e-12 {
		t.Fatal("STP inconsistent with recorded per-thread CPIs")
	}
	if math.Abs(res.ANTT-metrics.ANTT(res.PerThread)) > 1e-12 {
		t.Fatal("ANTT inconsistent with recorded per-thread CPIs")
	}
	// CPI_MT must equal cycles/committed for each thread.
	for i := range w.Benchmarks {
		want := float64(res.Result.Cycles) / float64(res.Result.Committed[i])
		if math.Abs(res.PerThread[i].CPIMT-want) > 1e-9 {
			t.Fatalf("thread %d CPI_MT %v, want %v", i, res.PerThread[i].CPIMT, want)
		}
	}
}

func TestRunWorkloadWithLimiter(t *testing.T) {
	r := testRunner()
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	res, _ := r.RunWorkloadCtx(context.Background(), BatchRequest{
		Config: core.DefaultConfig(2), Workload: w, Kind: policy.ICount, Limiter: policy.StaticPartition{},
	})
	if res.Policy != "static" {
		t.Fatalf("policy label %q, want limiter name", res.Policy)
	}
	if res.STP <= 0 {
		t.Fatal("bad STP under limiter")
	}
}

func TestDeterministicAcrossRunners(t *testing.T) {
	w := bench.Workload{Benchmarks: []string{"swim", "twolf"}}
	req := BatchRequest{Config: core.DefaultConfig(2), Workload: w, Kind: policy.Flush}
	a, _ := testRunner().RunWorkloadCtx(context.Background(), req)
	b, _ := testRunner().RunWorkloadCtx(context.Background(), req)
	if a.STP != b.STP || a.ANTT != b.ANTT || a.Result.Cycles != b.Result.Cycles {
		t.Fatalf("non-deterministic workload run: %v/%v vs %v/%v", a.STP, a.ANTT, b.STP, b.ANTT)
	}
}
