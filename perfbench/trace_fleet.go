package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// leaseLog captures the coordinator's lease-lifecycle log records (the
// fleet.Options.Logger hook) with their times.
type leaseLog struct {
	mu     sync.Mutex
	events []leaseEvent
}

type leaseEvent struct {
	at        time.Time
	msg       string
	requestID string
	worker    string
	cells     int
}

func (l *leaseLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *leaseLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *leaseLog) WithGroup(string) slog.Handler            { return l }

func (l *leaseLog) Handle(_ context.Context, r slog.Record) error {
	ev := leaseEvent{at: r.Time, msg: r.Message}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case obs.KeyRequestID:
			ev.requestID = a.Value.String()
		case "worker":
			ev.worker = a.Value.String()
		case "cells":
			ev.cells = int(a.Value.Int64())
		}
		return true
	})
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	return nil
}

// workTransport is the fleet.Options.Client hook: it records when each lease
// delivery was first posted, keyed by its X-Request-Id.
type workTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	first map[string]time.Time
}

func (t *workTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/work/lease" {
		id := req.Header.Get(obs.RequestIDHeader)
		t.mu.Lock()
		if _, ok := t.first[id]; !ok {
			t.first[id] = time.Now()
		}
		t.mu.Unlock()
	}
	return t.base.RoundTrip(req)
}

// workerCacheStats reads a worker's reference-cache counters from /metrics.
func workerCacheStats(ctx context.Context, base string) (smtmlp.EngineMetrics, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return smtmlp.EngineMetrics{}, err
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return smtmlp.EngineMetrics{}, fmt.Errorf("GET /metrics: %w", err)
	}
	return m.Engine, nil
}

// fleetTrace is what the hooks saw over the traced rounds.
type fleetTrace struct {
	sum                 fleet.Summary
	cells               int
	wall                time.Duration
	lastWall, lastIdle  time.Duration // the latest round alone
	rtt                 []float64     // ms per collected lease
	idle, tail          time.Duration
	hits, misses, evict uint64
	recs                []store.Record
	batches             []int // collected lease sizes in collection order
	refs                []sim.RefRecord
}

// traceFleetRound runs one hooked fleet round and folds what it saw into ft.
func traceFleetRound(ctx context.Context, e *env, tr *tracer, spec campaign.Spec, ft *fleetTrace, want [2]string) error {
	logs := &leaseLog{}
	tp := &workTransport{base: http.DefaultTransport.(*http.Transport).Clone(), first: map[string]time.Time{}}
	opts := fleet.Options{Client: &http.Client{Transport: tp}, Logger: slog.New(logs)}
	collect := func(dir string) error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		ft.recs = st.Records()
		ft.refs = st.Refs()
		return nil
	}
	r, err := runFleetRound(ctx, e, filepath.Join(e.work, "round"), spec, opts, false, true, collect)
	if err != nil {
		return err
	}
	defer stopWorkers(r.workers)
	e.rep.accountCells("traced fleet round", r.sum.Total-r.sum.Skipped, r.sum.Executed, nil,
		sameStore(r.results, r.refs, want[0], want[1]))
	for _, w := range r.workers {
		m, err := workerCacheStats(ctx, w.url())
		if err != nil {
			return err
		}
		ft.hits += m.CacheHits
		ft.misses += m.CacheMisses
		ft.evict += m.CacheEvictions
	}
	runStart, runEnd := r.began, r.began.Add(r.run)
	tr.add(span{Name: "fleet.run", ID: spec.Name, Start: runStart, End: runEnd})

	// Per worker: the union of its leases' intervals, from first post to
	// collection, is its busy time.
	busy := map[string][]span{}
	last := map[string]time.Time{}
	for _, ev := range logs.events {
		if ev.msg != "lease collected" {
			continue
		}
		tp.mu.Lock()
		start, ok := tp.first[ev.requestID]
		tp.mu.Unlock()
		if !ok {
			return fmt.Errorf("lease %s collected but never posted", ev.requestID)
		}
		s := span{Name: "fleet.lease", ID: ev.requestID, Parent: ev.worker, Start: start, End: ev.at}
		tr.add(s)
		busy[ev.worker] = append(busy[ev.worker], s)
		ft.rtt = append(ft.rtt, ms(s.dur()))
		ft.batches = append(ft.batches, ev.cells)
		if ev.at.After(last[ev.worker]) {
			last[ev.worker] = ev.at
		}
	}
	if len(last) != fleetWorkers {
		return fmt.Errorf("%d of %d workers completed a lease", len(last), fleetWorkers)
	}
	firstDone := runEnd
	ft.lastIdle = 0
	for w, spans := range busy {
		ft.lastIdle += selfTime(span{Start: runStart, End: runEnd}, spans)
		if last[w].Before(firstDone) {
			firstDone = last[w]
		}
	}
	ft.idle += ft.lastIdle
	ft.lastWall = r.run
	ft.tail += runEnd.Sub(firstDone)
	ft.wall += r.run
	ft.cells += r.sum.Executed
	ft.sum.LeasesDispatched += r.sum.LeasesDispatched
	ft.sum.LeasesRetried += r.sum.LeasesRetried
	ft.sum.Duplicates += r.sum.Duplicates
	ft.sum.BytesOut += r.sum.BytesOut
	ft.sum.BytesIn += r.sum.BytesIn
	ft.sum.BytesOutWire += r.sum.BytesOutWire
	ft.sum.BytesInWire += r.sum.BytesInWire
	return nil
}

// kernelSample is every how-many-th cell of the fleet spec the kernel
// replay runs; the spec is large, and the kernel's cost per cell does not
// depend on which worker ran it.
const kernelSample = 4

// traceFleet runs one untraced and at least two traced fleet rounds, then
// replays the kernel, reference and store calls of the spec.
func traceFleet(ctx context.Context, e *env, spec campaign.Spec, wantResults, wantRefs string) error {
	want := [2]string{wantResults, wantRefs}
	untraced, err := runFleetRound(ctx, e, filepath.Join(e.work, "round"), spec, fleet.Options{}, false, false, nil)
	if err != nil {
		return err
	}
	e.rep.accountCells("untraced fleet round", untraced.sum.Total-untraced.sum.Skipped, untraced.sum.Executed, nil,
		sameStore(untraced.results, untraced.refs, wantResults, wantRefs))

	tr := &tracer{}
	ft := &fleetTrace{}
	deadline := time.Now().Add(e.seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		if err := traceFleetRound(ctx, e, tr, spec, ft, want); err != nil {
			return err
		}
	}
	e.rep.set("fleet.leases", "count", float64(ft.sum.LeasesDispatched), 1)
	e.rep.set("fleet.leases_retried", "count", float64(ft.sum.LeasesRetried), 1)
	e.rep.set("fleet.duplicates", "count", float64(ft.sum.Duplicates), 1)
	wire := float64(ft.sum.BytesOutWire + ft.sum.BytesInWire)
	e.rep.set("fleet.wire_bytes_per_cell", "bytes", wire/float64(ft.cells), ft.cells)
	e.rep.set("fleet.wire_ratio", "fraction", wire/float64(ft.sum.BytesOut+ft.sum.BytesIn), 1)
	if err := e.rep.setPercentile("fleet.lease_rtt_ms_p50", "ms", ft.rtt, 0.5); err != nil {
		return err
	}
	e.rep.set("fleet.worker_idle_frac", "fraction", float64(ft.idle)/float64(ft.wall*fleetWorkers), len(ft.rtt))
	e.rep.set("fleet.tail_ms", "ms", ms(ft.tail), 1)
	e.rep.set("sim.ref_hits", "count", float64(ft.hits), 1)
	e.rep.set("sim.ref_misses", "count", float64(ft.misses), 1)
	e.rep.set("sim.ref_evictions", "count", float64(ft.evict), 1)
	e.rep.set("trace.overhead_frac", "fraction",
		(ft.wall.Seconds()/float64(ft.cells))/(untraced.run.Seconds()/float64(untraced.sum.Executed))-1, 2)

	cells, err := specCells(spec)
	if err != nil {
		return err
	}
	instructions, warmup := spec.Params()
	refTime, nRefs, err := replayRefs(ctx, tr, cells, instructions, warmup)
	if err != nil {
		return err
	}
	e.rep.set("sim.ref_ms", "ms", ms(refTime), nRefs)
	var sample []campaign.Cell
	for i := 0; i < len(cells); i += kernelSample {
		sample = append(sample, cells[i])
	}
	results := map[string]smtmlp.WorkloadResult{}
	for _, rec := range ft.recs {
		results[rec.Fingerprint] = rec.Result
	}
	kernel, err := replayKernel(ctx, tr, sample, results, instructions, warmup)
	if err != nil {
		return err
	}
	cycles, committed := resultTotals(results)
	if err := reportKernel(e, kernel, len(results), cycles, committed); err != nil {
		return err
	}
	// Workers' simulate time per round, estimated from the replays.
	kernelAll := time.Duration(float64(kernel.total) * float64(len(cells)) / float64(len(sample)))
	rounds := float64(ft.cells) / float64(len(cells))
	simTime := time.Duration(rounds * float64(kernelAll+refTime))
	e.rep.set("sim.pool_busy", "fraction", float64(simTime)/float64(ft.wall*fleetWorkers), len(sample))

	appendUs, perRecord, mergeMs, err := replayStoreAppends(tr, filepath.Join(e.work, "replay"), ft.recs, ft.batches, ft.refs)
	if err != nil {
		return err
	}
	if err := e.rep.setPercentile("store.append_us_p50", "us", appendUs, 0.5); err != nil {
		return err
	}
	e.rep.set("store.bytes_per_record", "bytes", perRecord, len(ft.recs))
	e.rep.set("store.merge_refs_ms", "ms", mergeMs, 1)
	empty := filepath.Join(e.work, "empty")
	st, err := store.Open(empty)
	if err != nil {
		return err
	}
	err = errors.Join(timeCampaignPrep(e, st, spec), st.Close())
	if err != nil {
		return err
	}
	if err := timeStoreOpen(e, empty, filepath.Join(e.work, "open")); err != nil {
		return err
	}

	capacity := ft.wall * fleetWorkers
	n := float64(ft.cells)
	perCell := func(d time.Duration) float64 { return ms(d) / n }
	sort.Float64s(ft.rtt)
	printSelf(e, fmt.Sprintf("fleet worker time per cell (%d cells, %d workers)", ft.cells, fleetWorkers), [][2]any{
		{"worker capacity", perCell(capacity)},
		{"core (kernel replay)", perCell(time.Duration(rounds * float64(kernelAll)))},
		{"sim references (replay)", perCell(time.Duration(rounds * float64(refTime)))},
		{"worker idle", perCell(ft.idle)},
		{"transfer, http, lease self", perCell(capacity - simTime - ft.idle)},
	})
	if err := tr.write(e.spans, fmt.Sprintf("fleet-seed%d.ndjson", e.seed)); err != nil {
		return err
	}
	// The replays run right after the last round; checking that round alone
	// keeps host-speed drift across the earlier rounds out of the check.
	return checkAccounted(e, kernelAll+refTime+ft.lastIdle, ft.lastWall*fleetWorkers, "fleet worker capacity in the last round")
}
