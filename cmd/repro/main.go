// Command repro regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows or series the paper
// reports; reproduction_test.go checks the headline claims at a moderate
// budget.
//
// Usage:
//
//	repro [-instructions N] [-warmup N] [-parallel N] [-only list] [-store DIR]
//
// -only selects a comma-separated subset of:
//
//	table1, fig4, fig5, predictors, fig9-10, fig11-12, fig13-14,
//	fig15-16, fig17-18, fig20-21, fig22-23
//
// With -store, the policy comparisons (fig9-10, fig13-14) run through the
// campaign subsystem against the persistent result store at DIR: cells
// already simulated (at the same budget and configuration) are reused, and
// an interrupted reproduction resumes instead of restarting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smtmlp/internal/bench"
	"smtmlp/internal/experiments"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

func main() {
	instructions := flag.Uint64("instructions", 300_000, "per-thread instruction budget (the paper uses 200M)")
	warmup := flag.Uint64("warmup", 0, "warm-up instructions before measurement (0 = budget/4)")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated experiment subset (empty = all)")
	storeDir := flag.String("store", "", "persistent result store for the policy comparisons (empty = in-memory only)")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the batch pools: in-flight simulations
	// finish, queued ones drain immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := sim.NewRunner(sim.Params{
		Instructions: *instructions,
		Warmup:       *warmup,
		Parallelism:  *parallel,
	})

	selected := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			selected[s] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	// With -store, the policy comparisons go through the campaign subsystem:
	// persistent, deduplicated, resumable after an interruption.
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
	}
	comparison := func(threads int) func() fmt.Stringer {
		return func() fmt.Stringer {
			if st == nil {
				if threads == 4 {
					return experiments.Figure13and14(ctx, runner)
				}
				return experiments.Figure9and10(ctx, runner)
			}
			pc, sum, err := experiments.PolicyComparisonCampaign(ctx, st, threads,
				*instructions, *warmup, *parallel)
			if err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, err)
				st.Close() // os.Exit skips the deferred Close
				os.Exit(1)
			}
			fmt.Printf("(campaign: %d cells, %d from store, %d simulated)\n",
				sum.Total, sum.Skipped, sum.Executed)
			return pc
		}
	}

	type experiment struct {
		name string
		run  func() fmt.Stringer
	}
	list := []experiment{
		{"table1", func() fmt.Stringer { return experiments.TableI(ctx, runner) }},
		{"fig4", func() fmt.Stringer { return experiments.Figure4(ctx, runner) }},
		{"fig5", func() fmt.Stringer { return experiments.Figure5(ctx, runner) }},
		{"predictors", func() fmt.Stringer { return predictorBundle{experiments.Predictors(ctx, runner)} }},
		{"fig9-10", comparison(2)},
		{"fig11-12", func() fmt.Stringer { return ipcBundle{experiments.Figure9and10(ctx, runner)} }},
		{"fig13-14", comparison(4)},
		{"fig15-16", func() fmt.Stringer { return experiments.Figure15and16(ctx, runner) }},
		{"fig17-18", func() fmt.Stringer { return experiments.Figure17and18(ctx, runner) }},
		{"fig20-21", func() fmt.Stringer { return experiments.Figure20and21(ctx, runner) }},
		{"fig22-23", func() fmt.Stringer { return experiments.Figure22and23(ctx, runner) }},
	}

	fmt.Printf("# MLP-aware SMT fetch policy reproduction — %d instructions/thread, warmup %d\n\n",
		*instructions, runnerWarmup(runner))
	for _, e := range list {
		if !want(e.name) {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted; stopping")
			os.Exit(1)
		}
		start := time.Now()
		res := e.run()
		fmt.Printf("## %s (%.1fs)\n\n%s\n", e.name, time.Since(start).Seconds(), res)
	}
	// An interruption during the last experiment leaves it rendered with
	// partial data; still report the run as interrupted.
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted; stopping")
		os.Exit(1)
	}
	if len(selected) > 0 {
		for name := range selected {
			found := false
			for _, e := range list {
				if e.name == name {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
		}
	}
}

func runnerWarmup(r *sim.Runner) uint64 { return r.Params.EffectiveWarmup() }

// predictorBundle renders Figures 6, 7 and 8 from one characterization run.
type predictorBundle struct{ p experiments.PredictorsResult }

func (b predictorBundle) String() string {
	return b.p.Figure6String() + "\n" + b.p.Figure7String() + "\n" + b.p.Figure8String()
}

// ipcBundle renders the Figure 11/12 per-thread IPC stacks.
type ipcBundle struct{ pc experiments.PolicyComparison }

func (b ipcBundle) String() string {
	return b.pc.IPCStacks(bench.MLPWorkload) + "\n" + b.pc.IPCStacks(bench.MixedWorkload)
}
