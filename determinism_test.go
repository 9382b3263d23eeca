package smtmlp_test

import (
	"encoding/json"
	"os"
	"testing"

	"smtmlp"
)

// TestKernelDeterminismAgainstBench replays the Table III workloads pinned in
// BENCH_6.json — the snapshot taken before the allocation-free kernel rewrite
// (pooled uop arena, ring-buffer ROB/FEQ, open-addressed MSHR table,
// incremental skip-ahead) and its event-driven issue wakeup — and requires
// cycle- and instruction-exact agreement. Unlike TestPerfSnapshot this needs
// no flags, so every `go test ./...` proves the kernel optimizations changed
// speed and nothing else.
func TestKernelDeterminismAgainstBench(t *testing.T) {
	data, err := os.ReadFile("BENCH_6.json")
	if err != nil {
		t.Fatalf("reading pinned baseline: %v", err)
	}
	var base perfSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding BENCH_6.json: %v", err)
	}
	if base.Schema != "smtmlp/perf/v1" || len(base.Workloads) == 0 {
		t.Fatalf("unexpected baseline: schema=%q workloads=%d", base.Schema, len(base.Workloads))
	}

	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(base.Budget),
		smtmlp.WithWarmup(base.Warmup),
	)
	benchmarksOf := map[string][]string{
		"mcf-galgel":             {"mcf", "galgel"},
		"swim-twolf":             {"swim", "twolf"},
		"vortex-parser":          {"vortex", "parser"},
		"applu-galgel-swim-mesa": {"applu", "galgel", "swim", "mesa"},
	}
	for _, e := range base.Workloads {
		bms, ok := benchmarksOf[e.Workload]
		if !ok {
			t.Errorf("baseline workload %q has no benchmark mapping; update the test", e.Workload)
			continue
		}
		pol, err := smtmlp.ParsePolicy(e.Policy)
		if err != nil {
			t.Fatalf("baseline policy %q: %v", e.Policy, err)
		}
		w := smtmlp.Mix(bms...)
		res, err := eng.RunWorkload(t.Context(), smtmlp.DefaultConfig(len(bms)), w, pol)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Workload, e.Policy, err)
		}
		var committed uint64
		for _, th := range res.Threads {
			committed += th.Committed
		}
		if res.Cycles != e.Cycles || committed != e.Instructions {
			t.Errorf("%s/%s: cycles=%d instructions=%d, pinned baseline has cycles=%d instructions=%d — the kernel's deterministic outputs drifted",
				e.Workload, e.Policy, res.Cycles, committed, e.Cycles, e.Instructions)
		}
	}
}
