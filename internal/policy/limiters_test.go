// Direct unit coverage for the resource limiters (StaticPartition, DCRA):
// the per-resource dispatch-gating arithmetic against cores in known states,
// and end-to-end occupancy invariants on real simulations.
package policy_test

import (
	"context"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/isa"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
	"smtmlp/internal/trace"
)

// freshCore builds an idle two-thread core (zero resource occupancy) on cfg.
func freshCore(cfg core.Config) *core.Core {
	return core.New(cfg, []trace.Model{
		bench.MustGet("mcf").Model,
		bench.MustGet("galgel").Model,
	}, nil, nil)
}

// uop crafts a micro-op of the given class for gating tests.
func uop(class isa.Class, dest int16) *core.Uop {
	return &core.Uop{In: isa.Instr{Class: class, Dest: dest, Src1: isa.RegNone, Src2: isa.RegNone}}
}

func TestLimiterNames(t *testing.T) {
	if (policy.StaticPartition{}).Name() != "static" {
		t.Fatal("StaticPartition name")
	}
	if (policy.DCRA{}).Name() != "dcra" {
		t.Fatal("DCRA name")
	}
}

// TestStaticPartitionGating exercises the per-resource share arithmetic: on
// an idle core a thread may dispatch while its 1/n share is positive, and is
// gated the moment a share resolves to zero entries.
func TestStaticPartitionGating(t *testing.T) {
	lim := policy.StaticPartition{}

	// Generous baseline: every class dispatches on an idle core.
	c := freshCore(core.DefaultConfig(2))
	for _, class := range []isa.Class{isa.IntALU, isa.Load, isa.Store, isa.FPALU, isa.Branch} {
		if !lim.MayDispatch(c, 0, uop(class, isa.RegNone)) {
			t.Fatalf("idle core gated class %v", class)
		}
	}

	// ROB share of zero (ROBSize < threads) gates everything immediately.
	cfg := core.DefaultConfig(2)
	cfg.ROBSize = 1 // share = 1/2 = 0
	if lim.MayDispatch(freshCore(cfg), 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("zero ROB share not gated")
	}

	// LSQ share of zero gates memory ops only.
	cfg = core.DefaultConfig(2)
	cfg.LSQSize = 1
	c = freshCore(cfg)
	if lim.MayDispatch(c, 0, uop(isa.Load, isa.RegNone)) {
		t.Fatal("zero LSQ share did not gate a load")
	}
	if !lim.MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("zero LSQ share gated a non-memory op")
	}

	// Issue-queue shares gate by class: FP queue exhaustion leaves integer
	// ops alone and vice versa.
	cfg = core.DefaultConfig(2)
	cfg.IQFP = 1
	c = freshCore(cfg)
	if lim.MayDispatch(c, 0, uop(isa.FPALU, isa.RegNone)) {
		t.Fatal("zero FP IQ share did not gate an FP op")
	}
	if !lim.MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("zero FP IQ share gated an integer op")
	}
	cfg = core.DefaultConfig(2)
	cfg.IQInt = 1
	c = freshCore(cfg)
	if lim.MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("zero int IQ share did not gate an integer op")
	}
	if !lim.MayDispatch(c, 0, uop(isa.FPALU, isa.RegNone)) {
		t.Fatal("zero int IQ share gated an FP op")
	}

	// Rename-register shares gate only register-writing ops of the matching
	// file (FP destinations live at isa.FPRegBase and up).
	cfg = core.DefaultConfig(2)
	cfg.RenameInt = 1
	c = freshCore(cfg)
	if lim.MayDispatch(c, 0, uop(isa.IntALU, 3)) {
		t.Fatal("zero int rename share did not gate an int-dest op")
	}
	if !lim.MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("zero int rename share gated a destination-less op")
	}
	if !lim.MayDispatch(c, 0, uop(isa.FPALU, isa.FPRegBase+3)) {
		t.Fatal("zero int rename share gated an FP-dest op")
	}
	cfg = core.DefaultConfig(2)
	cfg.RenameFP = 1
	c = freshCore(cfg)
	if lim.MayDispatch(c, 0, uop(isa.FPALU, isa.FPRegBase+3)) {
		t.Fatal("zero FP rename share did not gate an FP-dest op")
	}
	if !lim.MayDispatch(c, 0, uop(isa.IntALU, 3)) {
		t.Fatal("zero FP rename share gated an int-dest op")
	}
}

// TestDCRAGating pins DCRA's distinguishing arithmetic: with no outstanding
// L1 misses every thread weighs 1, and the at-least-one-entry floor keeps
// dispatch open where StaticPartition would deadlock a thread entirely.
func TestDCRAGating(t *testing.T) {
	lim := policy.DCRA{}
	c := freshCore(core.DefaultConfig(2))
	if !lim.MayDispatch(c, 0, uop(isa.Load, 3)) || !lim.MayDispatch(c, 1, uop(isa.FPALU, isa.FPRegBase+1)) {
		t.Fatal("idle core gated under DCRA")
	}

	// ROBSize 1 on two threads: static's share is 0 (gated); DCRA's floor
	// grants one entry, so an idle thread may still dispatch.
	cfg := core.DefaultConfig(2)
	cfg.ROBSize = 1
	c = freshCore(cfg)
	if !lim.MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("DCRA one-entry floor not honored")
	}
	if (policy.StaticPartition{}).MayDispatch(c, 0, uop(isa.IntALU, isa.RegNone)) {
		t.Fatal("static partition contrast broken: zero share dispatched")
	}
}

// TestDCRADefaultSlowWeight pins the zero-value default: DCRA{} behaves
// exactly like an explicit 2:1 slow:fast weighting.
func TestDCRADefaultSlowWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations; skipped in -short")
	}
	r := sim.NewRunner(sim.Params{Instructions: 6_000, Warmup: 1_500, Parallelism: 1})
	cfg := core.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"mcf", "galgel"}}
	ctx := context.Background()
	def, _ := r.RunWorkloadCtx(ctx, sim.BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount, Limiter: policy.DCRA{}})
	explicit, _ := r.RunWorkloadCtx(ctx, sim.BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount, Limiter: policy.DCRA{SlowWeight: 2}})
	if def.Result.Cycles != explicit.Result.Cycles || def.STP != explicit.STP {
		t.Fatalf("DCRA{} (cycles=%d STP=%v) differs from SlowWeight:2 (cycles=%d STP=%v)",
			def.Result.Cycles, def.STP, explicit.Result.Cycles, explicit.STP)
	}
}

// TestStaticPartitionBoundsOccupancy is the end-to-end invariant: under the
// static partitioner no thread's mean ROB occupancy can exceed its 1/n
// share, while an unlimited run of the same workload does exceed it (so the
// limiter demonstrably constrained something).
func TestStaticPartitionBoundsOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations; skipped in -short")
	}
	r := sim.NewRunner(sim.Params{Instructions: 8_000, Warmup: 2_000, Parallelism: 1})
	cfg := core.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"mcf", "galgel"}}
	share := float64(cfg.ROBSize / 2)

	ctx := context.Background()
	limited, _ := r.RunWorkloadCtx(ctx, sim.BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount, Limiter: policy.StaticPartition{}})
	exceeded := false
	for tid, occ := range limited.Result.AvgROBOccupancy {
		if occ > share {
			t.Fatalf("thread %d mean ROB occupancy %.1f exceeds the static share %.0f", tid, occ, share)
		}
	}
	free, _ := r.RunWorkloadCtx(ctx, sim.BatchRequest{Config: cfg, Workload: w, Kind: policy.ICount})
	for _, occ := range free.Result.AvgROBOccupancy {
		if occ > share {
			exceeded = true
		}
	}
	if !exceeded {
		t.Skip("unlimited run never exceeded the share at this budget; invariant check vacuous")
	}
}
