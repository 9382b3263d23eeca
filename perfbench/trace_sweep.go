package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// specCells expands a spec into cells, as campaign.MissingCells does on an
// empty store.
func specCells(spec campaign.Spec) ([]campaign.Cell, error) {
	reqs, fps, err := spec.Requests()
	if err != nil {
		return nil, err
	}
	cells := make([]campaign.Cell, len(reqs))
	for i := range reqs {
		cells[i] = campaign.Cell{Index: i, Fingerprint: fps[i], Request: reqs[i]}
	}
	return cells, nil
}

// traceSweep runs one untraced and one traced sweep round, then replays the
// kernel, reference, store and campaign calls of the traced round.
func traceSweep(ctx context.Context, e *env, spec campaign.Spec, priorDir string) error {
	tr := &tracer{}
	cells, err := specCells(spec)
	if err != nil {
		return err
	}
	inSpec := map[string]bool{}
	for _, c := range cells {
		inSpec[c.Fingerprint] = true
	}
	instructions, warmup := spec.Params()

	untraced, err := runSweepRound(ctx, priorDir, filepath.Join(e.work, "round"), spec,
		campaign.Options{Parallelism: parallelism}, false, nil)
	if err != nil {
		return err
	}
	e.rep.accountCells("untraced sweep round", len(cells), untraced.sum.Executed, nil, checkGolden(e, untraced))

	gate := &tracingGate{tr: tr}
	cache := smtmlp.NewCache(0)
	var recs []store.Record
	var refs []sim.RefRecord
	results := map[string]smtmlp.WorkloadResult{}
	collect := func(dir string) error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		for _, rec := range st.Records() {
			if inSpec[rec.Fingerprint] {
				recs = append(recs, rec)
				results[rec.Fingerprint] = rec.Result
			}
		}
		refs = st.Refs()
		return nil
	}
	traced, err := runSweepRound(ctx, priorDir, filepath.Join(e.work, "round"), spec,
		campaign.Options{Parallelism: parallelism, Gate: gate, Cache: cache}, false, collect)
	if err != nil {
		return err
	}
	var mismatch error
	if traced.results != untraced.results || traced.refs != untraced.refs {
		mismatch = fmt.Errorf("traced sweep store differs from the untraced one")
	}
	e.rep.accountCells("traced sweep round", len(cells), traced.sum.Executed, nil, mismatch)
	tr.add(span{Name: "campaign.run", ID: spec.Name, Start: traced.began, End: traced.began.Add(traced.run)})

	hits, misses, evictions := cache.Stats()
	e.rep.set("sim.ref_hits", "count", float64(hits), 1)
	e.rep.set("sim.ref_misses", "count", float64(misses), 1)
	e.rep.set("sim.ref_evictions", "count", float64(evictions), 1)
	var held time.Duration
	holds := tr.named("sim.cell")
	for _, s := range holds {
		held += s.dur()
	}
	e.rep.set("sim.pool_busy", "fraction", float64(held)/float64(traced.run*parallelism), len(holds))

	refTime, nRefs, err := replayRefs(ctx, tr, cells, instructions, warmup)
	if err != nil {
		return err
	}
	e.rep.set("sim.ref_ms", "ms", ms(refTime), nRefs)
	kernel, err := replayKernel(ctx, tr, cells, results, instructions, warmup)
	if err != nil {
		return err
	}
	cycles, committed := resultTotals(results)
	if err := reportKernel(e, kernel, len(results), cycles, committed); err != nil {
		return err
	}

	if err := timeStoreOpen(e, priorDir, filepath.Join(e.work, "open")); err != nil {
		return err
	}
	appendUs, perRecord, mergeMs, err := replayStoreAppends(tr, filepath.Join(e.work, "replay"), recs, nil, refs)
	if err != nil {
		return err
	}
	if err := e.rep.setPercentile("store.append_us_p50", "us", appendUs, 0.5); err != nil {
		return err
	}
	e.rep.set("store.bytes_per_record", "bytes", perRecord, len(recs))
	e.rep.set("store.merge_refs_ms", "ms", mergeMs, 1)
	st, err := store.Open(priorDir)
	if err != nil {
		return err
	}
	err = timeCampaignPrep(e, st, spec)
	st.Close()
	if err != nil {
		return err
	}

	e.rep.set("trace.overhead_frac", "fraction", float64(traced.run)/float64(untraced.run)-1, 2)
	n := float64(len(holds))
	perCell := func(d time.Duration) float64 { return ms(d) / n }
	printSelf(e, fmt.Sprintf("sweep self time per cell (%d cells, parallelism %d)", len(holds), parallelism), [][2]any{
		{"cell wall (slot held)", perCell(held)},
		{"core (kernel replay)", perCell(kernel.total)},
		{"sim references (replay)", perCell(refTime)},
		{"sim self", perCell(held - kernel.total - refTime)},
		{"campaign self (idle slots)", perCell(traced.run*parallelism - held)},
		{"store appends (replay)", sum(appendUs) / 1000 / n},
	})
	if err := tr.write(e.spans, fmt.Sprintf("sweep-seed%d.ndjson", e.seed)); err != nil {
		return err
	}
	return checkAccounted(e, kernel.total+refTime, held, "sweep cell wall time")
}
