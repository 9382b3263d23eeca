package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smtmlp/internal/campaign"
	"smtmlp/internal/store"
)

// setupSamples is how many set-ups every run times, so that the median has
// minBeyond samples above it.
const setupSamples = 2*minBeyond + 1

//go:embed golden.json
var goldenJSON []byte

// golden holds the default seed's sweep store digests: a change that moves
// any simulated statistic changes them.
type golden struct {
	Seed    uint64 `json:"seed"`
	Results string `json:"results_sha256"`
	Refs    string `json:"refs_sha256"`
}

// sweepRound is one timed campaign over a fresh copy of the prior store.
type sweepRound struct {
	began      time.Time // end of set-up, when the first cell could be submitted
	setup, run time.Duration
	sum        campaign.Summary
	results    string // store digests after the run
	refs       string
}

// setupEnd returns a progress callback for campaign.Run or fleet.Run that
// records when the run first reports progress: both report once the spec is
// expanded and diffed and the engine or drivers are ready, just before the
// first cell is submitted. With setupOnly it cancels the run there.
func setupEnd(at *time.Time, setupOnly bool, cancel func()) func(campaign.Progress) {
	return func(campaign.Progress) {
		if at.IsZero() {
			*at = time.Now()
			if setupOnly {
				cancel()
			}
		}
	}
}

// runSweepRound copies the prior store to dir, opens it and runs the spec.
// Set-up ends at the campaign's first progress report, which campaign.Run
// makes after expanding and diffing the spec and building its engine, just
// before it submits the first cell. With setupOnly the campaign is canceled
// there.
// A non-nil inspect sees the store directory after the run, before it is
// removed.
func runSweepRound(ctx context.Context, priorDir, dir string, spec campaign.Spec, opts campaign.Options, setupOnly bool, inspect func(dir string) error) (sweepRound, error) {
	var r sweepRound
	if err := copyDir(priorDir, dir); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstReport time.Time
	opts.Progress = setupEnd(&firstReport, setupOnly, cancel)
	start := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return r, err
	}
	sum, err := campaign.Run(ctx, st, spec, opts)
	end := time.Now()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	r.sum = sum
	if firstReport.IsZero() {
		return r, fmt.Errorf("campaign made no progress report: %v", err)
	}
	r.began = firstReport
	r.setup = firstReport.Sub(start)
	r.run = end.Sub(firstReport)
	if setupOnly {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if r.results, r.refs, err = storeDigest(dir); err != nil || inspect == nil {
		return r, err
	}
	return r, inspect(dir)
}

// buildPrior runs the earlier, disjoint campaign into dir: the store every
// timed round appends to.
func buildPrior(ctx context.Context, dir string, spec campaign.Spec) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	sum, err := campaign.Run(ctx, st, spec, campaign.Options{Parallelism: parallelism})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && sum.Failed > 0 {
		err = fmt.Errorf("prior campaign: %d cells failed", sum.Failed)
	}
	return err
}

func runSweep(ctx context.Context, e *env) error {
	spec, prior := sweepSpecs(e.seed)
	priorDir := filepath.Join(e.work, "prior")
	if err := buildPrior(ctx, priorDir, prior); err != nil {
		return err
	}
	if e.trace {
		return traceSweep(ctx, e, spec, priorDir)
	}

	var setups []float64
	for i := 0; i < setupSamples; i++ {
		r, err := runSweepRound(ctx, priorDir, filepath.Join(e.work, "setup"), spec,
			campaign.Options{Parallelism: parallelism}, true, nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, secs(r.setup))
	}

	var (
		cells    int
		runTime  time.Duration
		peak     float64
		first    *sweepRound
		holds    []float64
		deadline = time.Now().Add(e.seconds)
	)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := resetSelfPeakRSS(); err != nil {
			return err
		}
		gate := &tracingGate{tr: &tracer{}}
		r, err := runSweepRound(ctx, priorDir, filepath.Join(e.work, "round"), spec,
			campaign.Options{Parallelism: parallelism, Gate: gate}, false, nil)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rss, rerr := selfPeakRSSMB()
		if rerr != nil {
			return rerr
		}
		var mismatch error
		switch {
		case err != nil:
		case first == nil:
			first = &r
			mismatch = checkGolden(e, r)
		case r.results != first.results || r.refs != first.refs:
			mismatch = fmt.Errorf("store digests differ from round 0")
		}
		done := e.rep.accountCells(fmt.Sprintf("sweep round %d", round), r.sum.Total-r.sum.Skipped, r.sum.Executed, err, mismatch)
		peak = max(peak, rss)
		if done == 0 {
			continue // a failed round adds no set-up, cells or latencies
		}
		setups = append(setups, secs(r.setup))
		cells += done
		runTime += r.run
		for _, s := range gate.tr.named("sim.cell") {
			holds = append(holds, ms(s.dur()))
		}
	}
	return reportEndToEnd(e, setups, cells, runTime, holds, peak)
}

// checkGolden compares the default seed's digests with the committed ones.
// On a mismatch it prints both, so that after an intended change of
// simulated results golden.json can be edited by hand.
func checkGolden(e *env, r sweepRound) error {
	if e.seed != defaultSeed {
		return nil
	}
	got := golden{Seed: defaultSeed, Results: r.results, Refs: r.refs}
	var want golden
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if got != want {
		return fmt.Errorf("sweep store digests %s/%s differ from golden.json %s/%s",
			got.Results, got.Refs, want.Results, want.Refs)
	}
	return nil
}
