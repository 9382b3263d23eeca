// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment at a reduced
// instruction budget and reports the headline quantities as custom metrics,
// so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation in one run. cmd/repro prints the full
// rows/series at configurable budgets (go run ./cmd/repro), and
// reproduction_test.go checks the headline claims.
package smtmlp_test

import (
	"context"
	"testing"

	"smtmlp"

	"smtmlp/internal/bench"
	"smtmlp/internal/experiments"
	"smtmlp/internal/metrics"
	"smtmlp/internal/sim"
)

// benchRunner returns a runner sized for the bench harness. Every benchmark
// calls it first, so the whole harness consistently respects -short (each
// regenerated experiment is far more than a short run should pay for).
func benchRunner(b *testing.B) *sim.Runner {
	b.Helper()
	if testing.Short() {
		b.Skip("bench harness regenerates paper experiments; skipped in -short")
	}
	return sim.NewRunner(sim.Params{Instructions: 30_000, Warmup: 10_000})
}

// BenchmarkTableI regenerates the Table I / Figure 1 characterization
// (LLL/1K, MLP, MLP impact, classification for all 26 benchmarks).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableI(context.Background(), benchRunner(b))
		match, total := res.ClassAgreement()
		b.ReportMetric(float64(match)/float64(total), "class-agreement")
	}
}

// BenchmarkFigure4 regenerates the MLP distance CDFs of the six most
// MLP-intensive benchmarks.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(context.Background(), benchRunner(b))
		// Report the fraction of lucas's MLP found below distance 40 (the
		// paper: "nearly 100%").
		for j, name := range res.Benchmarks {
			if name == "lucas" && len(res.CDF[j]) > 40 {
				b.ReportMetric(res.CDF[j][40], "lucas-cdf@40")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the prefetching on/off IPC comparison.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(context.Background(), benchRunner(b))
		b.ReportMetric(res.HarmonicSpeedup, "prefetch-speedup")
	}
}

// BenchmarkFigure6and7and8 regenerates the predictor accuracy study.
func BenchmarkFigure6and7and8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Predictors(context.Background(), benchRunner(b))
		var acc, bin, far float64
		var n float64
		for _, r := range res.Rows {
			acc += r.HitMissAccuracy
			if r.HasMLPData {
				bin += r.TP + r.TN
				far += r.FarEnough
				n++
			}
		}
		b.ReportMetric(acc/float64(len(res.Rows)), "fig6-lll-accuracy")
		if n > 0 {
			b.ReportMetric(bin/n, "fig7-binary-accuracy")
			b.ReportMetric(far/n, "fig8-far-enough")
		}
	}
}

// reportGroup emits STP/ANTT metrics for one workload class of a policy
// comparison.
func reportGroup(b *testing.B, pc experiments.PolicyComparison, class bench.WorkloadClass, prefix string) {
	b.Helper()
	icount, ok1 := pc.GroupPolicy(class, "icount")
	mlpflush, ok2 := pc.GroupPolicy(class, "mlpflush")
	if ok1 && ok2 {
		b.ReportMetric(metrics.RelativeChange(icount.STP, mlpflush.STP), prefix+"-stp-vs-icount")
		b.ReportMetric(metrics.RelativeChange(icount.ANTT, mlpflush.ANTT), prefix+"-antt-vs-icount")
	}
}

// BenchmarkFigure9and10 regenerates the two-thread policy comparison.
func BenchmarkFigure9and10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := experiments.Figure9and10(context.Background(), benchRunner(b))
		reportGroup(b, pc, bench.MLPWorkload, "mlp")
		reportGroup(b, pc, bench.MixedWorkload, "mixed")
	}
}

// BenchmarkFigure11and12 regenerates the per-thread IPC stacks (the same
// simulations as Figures 9/10, rendered per thread).
func BenchmarkFigure11and12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := experiments.Figure9and10(context.Background(), benchRunner(b))
		_ = pc.IPCStacks(bench.MLPWorkload)
		_ = pc.IPCStacks(bench.MixedWorkload)
	}
}

// BenchmarkFigure13and14 regenerates the four-thread policy comparison.
func BenchmarkFigure13and14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := experiments.Figure13and14(context.Background(), benchRunner(b))
		reportGroup(b, pc, bench.MixedWorkload, "4t-mixed")
	}
}

// BenchmarkFigure15and16 regenerates the memory latency sweep.
func BenchmarkFigure15and16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure15and16(context.Background(), benchRunner(b))
		// The paper's trend: the MLP-aware flush advantage over ICOUNT
		// grows with memory latency. Report both endpoints.
		for _, label := range []string{"mem=200", "mem=800"} {
			var icount, mlpflush float64
			for _, p := range res.Points[label] {
				switch p.Policy {
				case "icount":
					icount = p.STP
				case "mlpflush":
					mlpflush = p.STP
				}
			}
			if icount > 0 {
				b.ReportMetric(mlpflush/icount-1, label+"-stp-gain")
			}
		}
	}
}

// BenchmarkFigure17and18 regenerates the window size sweep.
func BenchmarkFigure17and18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure17and18(context.Background(), benchRunner(b))
		for _, label := range []string{"rob=128", "rob=1024"} {
			var icount, mlpflush float64
			for _, p := range res.Points[label] {
				switch p.Policy {
				case "icount":
					icount = p.ANTT
				case "mlpflush":
					mlpflush = p.ANTT
				}
			}
			if icount > 0 {
				b.ReportMetric(1-mlpflush/icount, label+"-antt-gain")
			}
		}
	}
}

// BenchmarkFigure20and21 regenerates the alternative-policy study (a-e).
func BenchmarkFigure20and21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := experiments.Figure20and21(context.Background(), benchRunner(b))
		if f, ok := pc.GroupPolicy(bench.MLPWorkload, "mlpflush"); ok {
			if d, ok2 := pc.GroupPolicy(bench.MLPWorkload, "mlpflush-rs"); ok2 {
				b.ReportMetric(metrics.RelativeChange(f.STP, d.STP), "d-vs-b-stp")
			}
		}
	}
}

// BenchmarkFigure22and23 regenerates the partitioning comparison
// (MLP-aware flush vs static partitioning vs DCRA).
func BenchmarkFigure22and23(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure22and23(context.Background(), benchRunner(b))
		var mlpflush, dcra float64
		for _, row := range res.TwoThread {
			if row.Class == bench.MLPWorkload {
				switch row.Scheme {
				case "mlpflush":
					mlpflush = row.ANTT
				case "dcra":
					dcra = row.ANTT
				}
			}
		}
		if dcra > 0 {
			b.ReportMetric(1-mlpflush/dcra, "antt-gain-vs-dcra")
		}
	}
}

// BenchmarkCorePipeline measures raw simulator speed (cycles simulated per
// second are implied by ns/op for a fixed-size run).
func BenchmarkCorePipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("pipeline benchmark runs a full-size simulation; skipped in -short")
	}
	r := sim.NewRunner(sim.Params{Instructions: 50_000, Warmup: 0, Parallelism: 1})
	cfg := smtmlp.DefaultConfig(2)
	w := bench.Workload{Benchmarks: []string{"mcf", "galgel"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := r.RunWorkloadCtx(context.Background(), sim.BatchRequest{Config: cfg, Workload: w, Kind: smtmlp.MLPFlush})
		b.ReportMetric(float64(res.Result.Cycles), "cycles")
	}
}
