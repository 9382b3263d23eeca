package sim

import (
	"context"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// TestSmokeSingleThread runs one benchmark briefly and checks basic sanity.
func TestSmokeSingleThread(t *testing.T) {
	r := NewRunner(Params{Instructions: 50_000})
	for _, b := range []string{"mcf", "swim", "gcc"} {
		_, res, _ := r.RunSingleCtx(context.Background(), core.DefaultConfig(1), b)
		if res.Committed[0] < 50_000 {
			t.Fatalf("%s: committed %d < budget", b, res.Committed[0])
		}
		ipc := res.IPC[0]
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("%s: implausible IPC %.3f", b, ipc)
		}
		t.Logf("%s: ipc=%.3f lll/1k=%.2f mlp=%.2f bmr=%.3f cycles=%d",
			b, ipc, res.LLLPer1K[0], res.MLP[0], res.BranchMispredictRate[0], res.Cycles)
	}
}

// TestSmokeTwoThread runs a two-thread workload under every paper policy.
func TestSmokeTwoThread(t *testing.T) {
	r := NewRunner(Params{Instructions: 30_000})
	w := bench.Workload{Benchmarks: []string{"mcf", "galgel"}, Class: bench.MLPWorkload}
	for _, k := range policy.Paper() {
		res, _ := r.RunWorkloadCtx(context.Background(), BatchRequest{Config: core.DefaultConfig(2), Workload: w, Kind: k})
		if res.STP <= 0 || res.ANTT <= 0 {
			t.Fatalf("%s: bad metrics STP=%.3f ANTT=%.3f", k, res.STP, res.ANTT)
		}
		t.Logf("%-9s STP=%.3f ANTT=%.3f ipc=[%.3f %.3f] rob=[%.0f %.0f] flushes=%v cpiST=[%.2f %.2f]",
			k, res.STP, res.ANTT, res.Result.IPC[0], res.Result.IPC[1],
			res.Result.AvgROBOccupancy[0], res.Result.AvgROBOccupancy[1],
			res.Result.Flushes, res.PerThread[0].CPIST, res.PerThread[1].CPIST)
	}
}
