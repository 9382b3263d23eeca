package sim

import (
	"strings"
	"testing"

	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/trace"
)

// kernelShape is one of BenchmarkKernel's cell shapes.
type kernelShape struct {
	name   string
	cfg    core.Config
	models []trace.Model
	kind   policy.Kind
}

// kernelShapes returns the sweep's cell shape on 2- and 4-thread ILP and
// MLP mixes under ICOUNT and MLP-aware flush.
func kernelShapes() []kernelShape {
	var out []kernelShape
	for _, mix := range [][]string{
		{"vortex", "parser"},
		{"mcf", "galgel"},
		{"vortex", "parser", "crafty", "twolf"},
		{"applu", "galgel", "swim", "mesa"},
	} {
		for _, kind := range []policy.Kind{policy.ICount, policy.MLPFlush} {
			out = append(out, kernelShape{strings.Join(mix, "-") + "/" + kind.String(), core.DefaultConfig(len(mix)), models(mix), kind})
		}
	}
	return out
}

// The sweep's cell budget: 5,000 instructions after 1,250 of warm-up.
const kernelInstructions, kernelWarmup = 5_000, 1_250

// BenchmarkKernel times the cycle kernel alone on the sweep's cell shape
// over 2- and 4-thread ILP and MLP mixes under ICOUNT and MLP-aware flush.
// One iteration is one cell on a recycled core — Reset, warm-up, statistics
// reset and the measured run, what runRecycled does between taking a core
// from the pool and returning it — with no reference simulation. One core
// serves every shape, and one untimed cell per shape lets it grow to the
// shape first. It reports ns per simulated cycle (warm-up included) and ns
// per measured committed instruction, the kernel layer's numbers, plus
// bytes and allocations per cell:
//
//	go test ./internal/sim -run '^$' -bench BenchmarkKernel -benchtime 20x -count 5 -cpu 1 -benchmem
func BenchmarkKernel(b *testing.B) {
	r := NewRunner(Params{Instructions: kernelInstructions, Warmup: kernelWarmup})
	c := new(core.Core)
	for _, s := range kernelShapes() {
		b.Run(s.name, func(b *testing.B) {
			cell := func() core.Result {
				c.Reset(s.cfg, s.models, policy.New(s.kind), nil)
				return r.runWarm(c, 0)
			}
			cell()
			var cycles int64
			var instrs uint64
			b.ReportAllocs()
			for b.Loop() {
				res := cell()
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
