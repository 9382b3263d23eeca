// Command smtsim runs one multiprogrammed workload on the simulated SMT
// processor and prints per-thread and system-level statistics.
//
// Usage:
//
//	smtsim [-policy name] [-limiter name] [-instructions N] [-threads b1,b2,...]
//
// Examples:
//
//	smtsim -threads mcf,galgel -policy mlpflush
//	smtsim -threads swim,twolf -policy flush -instructions 1000000
//	smtsim -threads mcf,swim,perlbmk,mesa -limiter dcra
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("smtsim", flag.ContinueOnError)
	threads := fs.String("threads", "mcf,galgel", "comma-separated benchmark names")
	policyName := fs.String("policy", "mlpflush", "fetch policy: icount, stall, pstall, mlpstall, flush, mlpflush, binflush, mlpflush-rs, binflush-rs")
	limiterName := fs.String("limiter", "", "resource partitioning: static or dcra (empty = fetch-policy managed)")
	instructions := fs.Uint64("instructions", 500_000, "per-thread instruction budget")
	warmup := fs.Uint64("warmup", 0, "warm-up instructions (0 = budget/4)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	names := strings.Split(*threads, ",")
	w := bench.Workload{Benchmarks: names}
	for _, n := range names {
		if _, err := bench.Get(n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	kind, err := policy.Parse(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		return 2
	}
	var limiter core.Limiter
	switch *limiterName {
	case "":
	case "static":
		limiter = policy.StaticPartition{}
	case "dcra":
		limiter = policy.DCRA{}
	default:
		fmt.Fprintf(os.Stderr, "unknown limiter %q\n", *limiterName)
		return 2
	}

	runner := sim.NewRunner(sim.Params{Instructions: *instructions, Warmup: *warmup})
	res, err := runner.RunWorkloadCtx(ctx, sim.BatchRequest{
		Config: core.DefaultConfig(len(names)), Workload: w, Kind: kind, Limiter: limiter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Fprintf(out, "workload: %s   policy: %s   instructions: %d/thread\n\n",
		w.Name(), res.Policy, *instructions)
	fmt.Fprintf(out, "%-10s %10s %8s %8s %8s %10s %8s %8s\n",
		"thread", "committed", "IPC", "LLL/1K", "MLP", "flushes", "CPI_ST", "CPI_MT")
	for i, b := range names {
		r := res.Result
		fmt.Fprintf(out, "%-10s %10d %8.3f %8.2f %8.2f %10d %8.2f %8.2f\n",
			b, r.Committed[i], r.IPC[i], r.LLLPer1K[i], r.MLP[i], r.Flushes[i],
			res.PerThread[i].CPIST, res.PerThread[i].CPIMT)
	}
	fmt.Fprintf(out, "\ncycles: %d   total IPC: %.3f\n", res.Result.Cycles, res.Result.TotalIPC())
	fmt.Fprintf(out, "STP:  %.3f (higher is better)\n", res.STP)
	fmt.Fprintf(out, "ANTT: %.3f (lower is better)\n", res.ANTT)
	return 0
}
