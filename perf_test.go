// Machine-readable performance snapshot: TestPerfSnapshot runs a fixed set
// of representative workloads and writes per-workload wall time and
// simulator throughput to the path given by -perf-out. The committed
// baseline is BENCH_15.json; CI regenerates a fresh snapshot and compares it
// against that baseline with -perf-baseline, which asserts the
// deterministic simulator outputs (cycles, committed instructions — drift
// there is a behavior change, so regenerate the baseline deliberately) and
// prints wall-time ratios. Timing is asserted only under -perf-gate, with
// headroom for machine noise. Without -perf-out the test skips.
package smtmlp_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"smtmlp"
)

var (
	perfOut      = flag.String("perf-out", "", "write the perf snapshot JSON (e.g. BENCH_15.json) to this path")
	perfBaseline = flag.String("perf-baseline", "", "committed snapshot to compare against (e.g. BENCH_15.json)")
	perfGate     = flag.Float64("perf-gate", 0, "fail if any workload's instr_per_sec falls below this fraction of the baseline's (0 disables; CI uses 0.75)")
)

// perfEntry is one measured workload.
type perfEntry struct {
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	Threads      int     `json:"threads"`
	Seconds      float64 `json:"seconds"`
	Cycles       int64   `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	// Simulator throughput: simulated cycles (resp. committed instructions)
	// per wall-clock second.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstrPerSec  float64 `json:"instr_per_sec"`
}

// perfSnapshot is the BENCH_5.json schema.
type perfSnapshot struct {
	Schema       string      `json:"schema"`
	Budget       uint64      `json:"budget"`
	Warmup       uint64      `json:"warmup"`
	Workloads    []perfEntry `json:"workloads"`
	TotalSeconds float64     `json:"total_seconds"`
}

func TestPerfSnapshot(t *testing.T) {
	if *perfOut == "" {
		t.Skip("no -perf-out path; perf snapshot not requested")
	}
	const budget, warmup = 30_000, 10_000
	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(budget),
		smtmlp.WithWarmup(warmup),
		smtmlp.WithParallelism(1), // serial: per-workload wall time is meaningful
	)
	cases := []struct {
		benchmarks []string
		policy     smtmlp.Policy
	}{
		{[]string{"mcf", "galgel"}, smtmlp.MLPFlush},                   // MLP-intensive pair, headline policy
		{[]string{"swim", "twolf"}, smtmlp.ICount},                     // mixed pair, baseline policy
		{[]string{"vortex", "parser"}, smtmlp.Flush},                   // ILP pair, flush machinery
		{[]string{"applu", "galgel", "swim", "mesa"}, smtmlp.MLPFlush}, // 4-thread all-MLP
	}
	snap := perfSnapshot{Schema: "smtmlp/perf/v1", Budget: budget, Warmup: warmup}
	ctx := t.Context()
	for _, c := range cases {
		w := smtmlp.Mix(c.benchmarks...)
		cfg := smtmlp.DefaultConfig(len(c.benchmarks))
		start := time.Now()
		res, err := eng.RunWorkload(ctx, cfg, w, c.policy)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name(), c.policy, err)
		}
		secs := time.Since(start).Seconds()
		var committed uint64
		for _, th := range res.Threads {
			committed += th.Committed
		}
		entry := perfEntry{
			Workload:     w.Name(),
			Policy:       c.policy.String(),
			Threads:      len(c.benchmarks),
			Seconds:      secs,
			Cycles:       res.Cycles,
			Instructions: committed,
		}
		if secs > 0 {
			entry.CyclesPerSec = float64(res.Cycles) / secs
			entry.InstrPerSec = float64(committed) / secs
		}
		snap.Workloads = append(snap.Workloads, entry)
		snap.TotalSeconds += secs
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*perfOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("perf snapshot (%d workloads, %.2fs total) written to %s",
		len(snap.Workloads), snap.TotalSeconds, *perfOut)

	if *perfBaseline != "" {
		comparePerf(t, snap, *perfBaseline)
	}
}

// comparePerf checks the fresh snapshot against the committed baseline. The
// simulator outputs (cycles, committed instructions) are deterministic, so
// any difference is a behavior change that must be accompanied by a
// deliberate baseline regeneration. Wall-time ratios are printed (via fmt,
// so they appear without -v); with -perf-gate they also become an assertion:
// a workload whose instr_per_sec falls below gate x baseline fails the test,
// so performance regressions are pinned in CI rather than anecdotal. The
// gate has headroom for machine noise (CI uses 0.75, i.e. fail only on a
// >25% regression); improvements are reported, never required.
func comparePerf(t *testing.T, snap perfSnapshot, baselinePath string) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("reading perf baseline: %v", err)
	}
	var base perfSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding perf baseline %s: %v", baselinePath, err)
	}
	if base.Schema != snap.Schema || base.Budget != snap.Budget || base.Warmup != snap.Warmup {
		t.Fatalf("baseline %s measures schema=%q budget=%d warmup=%d; this test measures schema=%q budget=%d warmup=%d — regenerate it with -perf-out",
			baselinePath, base.Schema, base.Budget, base.Warmup, snap.Schema, snap.Budget, snap.Warmup)
	}
	byKey := make(map[string]perfEntry, len(base.Workloads))
	for _, e := range base.Workloads {
		byKey[e.Workload+"/"+e.Policy] = e
	}
	fmt.Printf("perf vs %s:\n", baselinePath)
	for _, e := range snap.Workloads {
		b, ok := byKey[e.Workload+"/"+e.Policy]
		if !ok {
			t.Errorf("workload %s/%s missing from baseline %s — regenerate it with -perf-out", e.Workload, e.Policy, baselinePath)
			continue
		}
		if b.Cycles != e.Cycles || b.Instructions != e.Instructions {
			t.Errorf("%s/%s simulates cycles=%d instructions=%d, baseline has cycles=%d instructions=%d — simulator behavior changed; regenerate %s deliberately",
				e.Workload, e.Policy, e.Cycles, e.Instructions, b.Cycles, b.Instructions, baselinePath)
		}
		ratio := 0.0
		if e.Seconds > 0 {
			ratio = b.Seconds / e.Seconds
		}
		fmt.Printf("  %-32s %-9s %7.3fs (baseline %7.3fs, speedup x%.2f)\n",
			e.Workload, e.Policy, e.Seconds, b.Seconds, ratio)
		if *perfGate > 0 && b.InstrPerSec > 0 {
			frac := e.InstrPerSec / b.InstrPerSec
			switch {
			case frac < *perfGate:
				t.Errorf("%s/%s throughput regressed: %.0f instr/s is %.2fx the baseline's %.0f (gate %.2f) — investigate, or regenerate %s if the slowdown is deliberate",
					e.Workload, e.Policy, e.InstrPerSec, frac, b.InstrPerSec, *perfGate, baselinePath)
			case frac > 1:
				fmt.Printf("    throughput improved: %.0f instr/s vs baseline %.0f (x%.2f)\n",
					e.InstrPerSec, b.InstrPerSec, frac)
			}
		}
	}
	if snap.TotalSeconds > 0 {
		fmt.Printf("  total %.3fs (baseline %.3fs, speedup x%.2f)\n",
			snap.TotalSeconds, base.TotalSeconds, base.TotalSeconds/snap.TotalSeconds)
	}
}
