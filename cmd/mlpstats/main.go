// Command mlpstats characterizes one benchmark (or all of them) the way
// Section 2 of the paper does: long-latency loads per 1K instructions, MLP
// by the Chou et al. definition, the performance impact of MLP, and the
// predictor statistics behind Figures 4 and 6-8.
//
// Usage:
//
//	mlpstats [-benchmark name|all] [-instructions N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/sim"
)

func main() {
	benchmark := flag.String("benchmark", "all", "benchmark name, or 'all'")
	instructions := flag.Uint64("instructions", 300_000, "instruction budget")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := bench.Names()
	if *benchmark != "all" {
		if _, err := bench.Get(*benchmark); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*benchmark}
	}

	runner := sim.NewRunner(sim.Params{Instructions: *instructions})
	fmt.Printf("%-10s %8s %6s %8s %6s %9s %9s %9s %9s\n",
		"benchmark", "LLL/1K", "MLP", "impact", "type", "LLL-pred", "miss-cov", "bin-MLP", "far-enough")
	for _, name := range names {
		cfg := core.DefaultConfig(1)
		cfg.LLSRSize = 128
		c, res, err := runner.RunSingleCtx(ctx, cfg, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		serCfg := cfg
		serCfg.Mem.SerializeLLL = true
		_, ser, err := runner.RunSingleCtx(ctx, serCfg, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		impact := 0.0
		if ser.IPC[0] > 0 && res.IPC[0] > 0 {
			cpiPar, cpiSer := 1/res.IPC[0], 1/ser.IPC[0]
			impact = (cpiSer - cpiPar) / cpiSer
		}
		class := "ILP"
		if impact > 0.10 {
			class = "MLP"
		}

		st := c.MLPState(0)
		bin := "-"
		if tp, tn, _, _, ok := st.BinaryAccuracy(); ok {
			bin = fmt.Sprintf("%8.1f%%", 100*(tp+tn))
		}
		far := "-"
		if fe, ok := st.FarEnoughAccuracy(); ok {
			far = fmt.Sprintf("%8.1f%%", 100*fe)
		}
		fmt.Printf("%-10s %8.2f %6.2f %7.1f%% %6s %8.1f%% %8.1f%% %9s %9s\n",
			name, res.LLLPer1K[0], res.MLP[0], 100*impact, class,
			100*st.MissPattern.Accuracy(), 100*st.MissPattern.MissCoverage(), bin, far)
	}
}
