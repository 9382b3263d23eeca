package sim

import (
	"strings"
	"testing"

	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// BenchmarkKernel times the cycle kernel alone on the sweep's cell shape
// (5,000 instructions after 1,250 of warm-up) over 2- and 4-thread ILP and
// MLP mixes under ICOUNT and MLP-aware flush. One iteration is one cell:
// core.New, warm-up, statistics reset and the measured run, with no
// reference simulation. It reports ns per simulated cycle (warm-up
// included) and ns per measured committed instruction, the kernel layer's
// numbers, plus allocations per cell:
//
//	go test ./internal/sim -run '^$' -bench BenchmarkKernel -benchtime 20x -count 5 -cpu 1
func BenchmarkKernel(b *testing.B) {
	mixes := [][]string{
		{"vortex", "parser"},
		{"mcf", "galgel"},
		{"vortex", "parser", "crafty", "twolf"},
		{"applu", "galgel", "swim", "mesa"},
	}
	r := NewRunner(Params{Instructions: 5_000, Warmup: 1_250})
	for _, mix := range mixes {
		for _, kind := range []policy.Kind{policy.ICount, policy.MLPFlush} {
			b.Run(strings.Join(mix, "-")+"/"+kind.String(), func(b *testing.B) {
				cfg := core.DefaultConfig(len(mix))
				ms := models(mix)
				var cycles int64
				var instrs uint64
				b.ReportAllocs()
				for b.Loop() {
					c := core.New(cfg, ms, policy.New(kind), nil)
					res := r.runWarm(c, 0)
					cycles += c.Now()
					for _, n := range res.Committed {
						instrs += n
					}
				}
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(ns/float64(cycles), "ns/cycle")
				b.ReportMetric(ns/float64(instrs), "ns/instr")
			})
		}
	}
}
