package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/store"
)

// fleetWorkers smtserved workers of parallelism 1 serve the coordinator this
// process runs with fleet.Run's default options.
const fleetWorkers = 2

// startWorkers launches the fleet's workers and waits until each answers
// /healthz.
func startWorkers(ctx context.Context, e *env) ([]*served, error) {
	var ws []*served
	for i := 0; i < fleetWorkers; i++ {
		s, err := startServed(ctx, e.smtserved, "-parallelism", "1")
		if err == nil {
			ws = append(ws, s)
			err = waitHealthy(ctx, s.url())
		}
		if err != nil {
			stopWorkers(ws)
			return nil, err
		}
	}
	return ws, nil
}

func stopWorkers(ws []*served) error {
	var errs []error
	for _, s := range ws {
		errs = append(errs, s.stop())
	}
	return errors.Join(errs...)
}

func urls(ws []*served) []string {
	var out []string
	for _, s := range ws {
		out = append(out, s.url())
	}
	return out
}

// fleetRound is one timed fleet campaign into a fresh store.
type fleetRound struct {
	began      time.Time // end of set-up, just before the first lease is carved
	setup, run time.Duration
	sum        fleet.Summary
	results    string
	refs       string
	rssMB      float64 // coordinator plus workers
	workers    []*served
}

// runFleetRound starts the workers, opens a fresh store and runs the spec.
// Set-up spans worker start to the coordinator's first progress report,
// which fleet.Run makes once the spec is expanded and diffed, just before it
// carves the first lease. With setupOnly the run is canceled there. With
// keep the workers are left running and returned on the round. A non-nil
// inspect sees the store directory after the run, before it is removed.
func runFleetRound(ctx context.Context, e *env, dir string, spec campaign.Spec, opts fleet.Options, setupOnly, keep bool, inspect func(dir string) error) (r fleetRound, err error) {
	defer os.RemoveAll(dir)
	start := time.Now()
	ws, err := startWorkers(ctx, e)
	if err != nil {
		return r, err
	}
	defer func() {
		if keep && err == nil {
			r.workers = ws
			return
		}
		err = errors.Join(err, stopWorkers(ws))
	}()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstReport time.Time
	opts.Workers = urls(ws)
	opts.Progress = setupEnd(&firstReport, setupOnly, cancel)
	st, err := store.Open(dir)
	if err != nil {
		return r, err
	}
	sum, err := fleet.Run(ctx, st, spec, opts)
	end := time.Now()
	err = errors.Join(err, st.Close())
	r.sum = sum
	if firstReport.IsZero() {
		return r, fmt.Errorf("fleet made no progress report: %v", err)
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
	if r.results, r.refs, err = storeDigest(dir); err != nil {
		return r, err
	}
	if inspect != nil {
		if err := inspect(dir); err != nil {
			return r, err
		}
	}
	self, err := selfPeakRSSMB()
	r.rssMB = self
	for _, s := range ws {
		rss, rerr := s.peakRSSMB()
		r.rssMB += rss
		err = errors.Join(err, rerr)
	}
	return r, err
}

// sameStore is nil when a store's digests equal the local ground truth's.
func sameStore(results, refs, wantResults, wantRefs string) error {
	if results != wantResults || refs != wantRefs {
		return errors.New("store differs from local campaign.Run")
	}
	return nil
}

// localDigests runs specs one after another with a local campaign.Run into
// one fresh store: the ground truth a fleet store must equal byte for byte.
func localDigests(ctx context.Context, dir string, specs ...campaign.Spec) (results, refs string, err error) {
	st, err := store.Open(dir)
	if err != nil {
		return "", "", err
	}
	for _, spec := range specs {
		if _, err = campaign.Run(ctx, st, spec, campaign.Options{Parallelism: parallelism}); err != nil {
			break
		}
	}
	if err = errors.Join(err, st.Close()); err != nil {
		return "", "", err
	}
	return storeDigest(dir)
}

// runProbes times one-cell fleet campaigns on already-warm workers, one
// after another into one fresh store, and checks that store against local
// execution of the same cells; a store that differs fails the run, since no
// probe's latency then counts.
func runProbes(ctx context.Context, e *env, ws []*served, opts fleet.Options) ([]float64, error) {
	probes := probeSpecs(e.seed)
	wantResults, wantRefs, err := localDigests(ctx, filepath.Join(e.work, "probe-truth"), probes...)
	if err != nil {
		return nil, fmt.Errorf("probe ground truth: %w", err)
	}
	// Every worker first simulates every two-thread reference, so no probe's
	// latency depends on which worker's cache happens to hold its
	// references.
	for i, s := range ws {
		if err := warmWorker(ctx, filepath.Join(e.work, fmt.Sprintf("warm-%d", i)), s); err != nil {
			return nil, fmt.Errorf("warm worker %d: %w", i, err)
		}
	}
	dir := filepath.Join(e.work, "probes")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	opts.Workers = urls(ws)
	var lat []float64
	for i, spec := range probes {
		start := time.Now()
		sum, err := fleet.Run(ctx, st, spec, opts)
		d := time.Since(start)
		e.rep.attempt(1)
		if err != nil || sum.Executed != 1 {
			e.rep.fail(1, "fleet probe %d: executed %d: %v", i, sum.Executed, err)
			continue
		}
		lat = append(lat, ms(d))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	results, refs, err := storeDigest(dir)
	if err != nil {
		return nil, err
	}
	if err := sameStore(results, refs, wantResults, wantRefs); err != nil {
		return nil, fmt.Errorf("fleet probes: %w", err)
	}
	return lat, nil
}

// warmWorker runs a campaign on one worker that needs every catalog
// benchmark's two-thread reference at the probe budget.
func warmWorker(ctx context.Context, dir string, w *served) error {
	defer os.RemoveAll(dir)
	names := smtmlp.Benchmarks()
	spec := campaign.Spec{Instructions: probeInstructions, Policies: []string{smtmlp.ICount.String()}}
	for i := 0; i < len(names); i += 2 {
		spec.Workloads.Mixes = append(spec.Workloads.Mixes, []string{names[i], names[(i+1)%len(names)]})
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	_, err = fleet.Run(ctx, st, spec, fleet.Options{Workers: []string{w.url()}})
	return errors.Join(err, st.Close())
}

func runFleet(ctx context.Context, e *env) error {
	spec := fleetSpec(e.seed)
	wantResults, wantRefs, err := localDigests(ctx, filepath.Join(e.work, "truth"), spec)
	if err != nil {
		return fmt.Errorf("ground truth: %w", err)
	}
	if e.trace {
		return traceFleet(ctx, e, spec, wantResults, wantRefs)
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		r, err := runFleetRound(ctx, e, filepath.Join(e.work, "setup"), spec, fleet.Options{}, true, false, nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, secs(r.setup))
	}
	var (
		cells    int
		runTime  time.Duration
		peak     float64
		last     []*served
		deadline = time.Now().Add(e.seconds)
	)
	defer func() { stopWorkers(last) }()
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := resetSelfPeakRSS(); err != nil {
			return err
		}
		stopWorkers(last)
		last = nil
		r, err := runFleetRound(ctx, e, filepath.Join(e.work, "round"), spec, fleet.Options{}, false, true, nil)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		last = r.workers
		done := e.rep.accountCells(fmt.Sprintf("fleet round %d", round), r.sum.Total-r.sum.Skipped, r.sum.Executed,
			err, sameStore(r.results, r.refs, wantResults, wantRefs))
		if done == 0 {
			continue // a failed round adds no set-up, cells or memory reading
		}
		setups = append(setups, secs(r.setup))
		cells += done
		runTime += r.run
		peak = max(peak, r.rssMB)
		fmt.Fprintf(e.log, "perfbench: fleet round %d: %d cells in %.3fs, %d leases\n",
			round, r.sum.Executed, r.run.Seconds(), r.sum.LeasesDispatched)
	}
	if last == nil {
		return errors.New("no workers left for the run-latency probes")
	}
	lat, err := runProbes(ctx, e, last, fleet.Options{})
	if err != nil {
		return err
	}
	return reportEndToEnd(e, setups, cells, runTime, lat, peak)
}
