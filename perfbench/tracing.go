package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"smtmlp"
	"smtmlp/internal/bench"
	"smtmlp/internal/campaign"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
	"smtmlp/internal/trace"
)

// The traced run measures layers from outside the program: it times calls
// into their public functions and hooks the program already exports, and
// replays on the run's own inputs the calls that happen only inside another
// layer (kernel runs, reference simulations, store appends).

// accountTolerance bounds how far a workload's measured layer times may sum
// from the cell wall time they split, as a share of that wall time.
const accountTolerance = 0.25

// span is one interval at a layer boundary. Spans of one cell or request
// share an ID; Parent names the enclosing layer's span.
type span struct {
	Name   string    `json:"name"`
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as NDJSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) {
			covered += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			covered += v.b.Sub(end)
			end = v.b
		}
	}
	return parent.dur() - covered
}

// ctxKey carries a request ID from the traced server's middleware to the
// slot gate, which sees the request's context.
type ctxKey struct{}

// tracingGate wraps a slot gate and records, per simulation, the wait for a
// slot and the time the slot was held. Without an inner gate it never
// blocks: the sweep uses it so to time each cell's run.
type tracingGate struct {
	inner smtmlp.SlotGate
	tr    *tracer
	class func(context.Context) string
	mu    sync.Mutex
	n     int
}

func (g *tracingGate) Acquire(ctx context.Context) (func(), error) {
	g.mu.Lock()
	g.n++
	id := fmt.Sprintf("cell-%d", g.n)
	g.mu.Unlock()
	parent := ""
	if v, ok := ctx.Value(ctxKey{}).(string); ok {
		id, parent = v, v
	}
	class := ""
	if g.class != nil {
		class = g.class(ctx)
	}
	start := time.Now()
	release := func() {}
	if g.inner != nil {
		r, err := g.inner.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		release = r
	}
	granted := time.Now()
	if g.inner != nil {
		g.tr.add(span{Name: "tenant.slot_wait." + class, ID: id, Parent: parent, Start: start, End: granted})
	}
	return func() {
		release()
		g.tr.add(span{Name: "sim.cell", ID: id, Parent: parent, Start: granted, End: time.Now()})
	}, nil
}

// runtimeStats reads the process-wide counters the core metrics need.
type runtimeStats struct{ allocs, allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// kernelReplay is the kernel's cost on a set of cells, replayed outside the
// program with core.New and Core.Run as sim runs a cell: interval trace
// armed, warm-up, statistics reset, measured run.
type kernelReplay struct {
	cellMs   map[string]float64 // per fingerprint
	total    time.Duration
	cycles   int64  // warm-up included
	measured uint64 // measured-phase instructions committed
	allocs   float64
	bytes    float64
	gcFrac   float64 // GC share of the process CPU time while replaying
}

// replayKernel replays cells at the program's instruction and warm-up
// budgets. want holds the result the program recorded for each cell, by
// fingerprint; a replayed cell whose simulated cycles or committed
// instructions differ from it did not run what the program ran, and fails
// the replay.
func replayKernel(ctx context.Context, tr *tracer, cells []campaign.Cell, want map[string]smtmlp.WorkloadResult, instructions, warmup uint64) (kernelReplay, error) {
	out := kernelReplay{cellMs: map[string]float64{}}
	var mu sync.Mutex
	var mismatches []error
	work := make(chan campaign.Cell)
	var wg sync.WaitGroup
	before := readRuntime()
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				models := make([]trace.Model, len(c.Request.Workload.Benchmarks))
				for i, b := range c.Request.Workload.Benchmarks {
					models[i] = bench.MustGet(b).Model
				}
				start := time.Now()
				k := core.New(c.Request.Config, models, policy.New(c.Request.Policy), nil)
				if c.Request.TraceInterval > 0 {
					k.EnableIntervalTrace(c.Request.TraceInterval)
				}
				if warmup > 0 {
					k.Run(warmup)
					k.ResetStats()
				}
				res := k.Run(instructions)
				end := time.Now()
				var committed uint64
				for _, n := range res.Committed {
					committed += n
				}
				tr.add(span{Name: "core.run", ID: c.Fingerprint, Start: start, End: end})
				err := sameRun(res, want, c.Fingerprint)
				mu.Lock()
				if err != nil && len(mismatches) < 5 {
					mismatches = append(mismatches, err)
				}
				out.cellMs[c.Fingerprint] = ms(end.Sub(start))
				out.total += end.Sub(start)
				out.cycles += k.Now()
				out.measured += committed
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		select {
		case work <- c:
		case <-ctx.Done():
		}
	}
	close(work)
	wg.Wait()
	d := readRuntime().sub(before)
	out.allocs, out.bytes = d.allocs, d.allocBytes
	if d.totalCPU > 0 {
		out.gcFrac = d.gcCPU / d.totalCPU
	}
	if err := errors.Join(mismatches...); err != nil {
		return out, fmt.Errorf("kernel replay differs from the program: %w", err)
	}
	return out, ctx.Err()
}

// sameRun is nil when a replayed kernel result has the simulated cycles and
// per-thread committed instructions of the program's result for cell fp.
func sameRun(got core.Result, want map[string]smtmlp.WorkloadResult, fp string) error {
	w, ok := want[fp]
	if !ok {
		return fmt.Errorf("cell %s: no program result to check against", fp)
	}
	same := got.Cycles == w.Cycles && len(got.Committed) == len(w.Threads)
	for i := 0; same && i < len(w.Threads); i++ {
		same = got.Committed[i] == w.Threads[i].Committed
	}
	if !same {
		var committed []uint64
		for _, t := range w.Threads {
			committed = append(committed, t.Committed)
		}
		return fmt.Errorf("cell %s: replay ran %d cycles committing %v, the program %d cycles committing %v",
			fp, got.Cycles, got.Committed, w.Cycles, committed)
	}
	return nil
}

// replayRefs times each distinct single-threaded reference the cells need,
// on a fresh runner so every one is simulated.
func replayRefs(ctx context.Context, tr *tracer, cells []campaign.Cell, instructions, warmup uint64) (time.Duration, int, error) {
	r := sim.NewRunner(sim.Params{Instructions: instructions, Warmup: warmup, Parallelism: 1})
	seen := map[string]bool{}
	var total time.Duration
	for _, c := range cells {
		for _, b := range c.Request.Workload.Benchmarks {
			key := sim.RefKey(c.Request.Config, b, instructions, warmup)
			if seen[key] {
				continue
			}
			seen[key] = true
			start := time.Now()
			if _, err := r.STReferenceCtx(ctx, c.Request.Config, b); err != nil {
				return 0, 0, err
			}
			end := time.Now()
			tr.add(span{Name: "sim.ref", ID: key, Start: start, End: end})
			total += end.Sub(start)
		}
	}
	return total, len(seen), nil
}

// reportKernel sets the core metrics from a replay.
func reportKernel(e *env, k kernelReplay, cells int, cycles int64, instructions uint64) error {
	var cellMs []float64
	for _, v := range k.cellMs {
		cellMs = append(cellMs, v)
	}
	n := len(k.cellMs)
	e.rep.set("core.ns_per_cycle", "ns", float64(k.total)/float64(k.cycles), n)
	e.rep.set("core.ns_per_instr", "ns", float64(k.total)/float64(k.measured), n)
	if err := e.rep.setPercentile("core.cell_ms_p50", "ms", cellMs, 0.5); err != nil {
		return err
	}
	e.rep.set("core.allocs_per_cell", "count", k.allocs/float64(n), n)
	e.rep.set("core.alloc_bytes_per_cell", "bytes", k.bytes/float64(n), n)
	e.rep.set("core.gc_cpu_frac", "fraction", k.gcFrac, n)
	e.rep.set("core.cycles", "count", float64(cycles), cells)
	e.rep.set("core.instructions", "count", float64(instructions), cells)
	return nil
}

// resultTotals sums the simulated cycles and committed instructions of
// results: correctness outputs that repeat exactly for a seed.
func resultTotals(results map[string]smtmlp.WorkloadResult) (cycles int64, instructions uint64) {
	for _, r := range results {
		cycles += r.Cycles
		for _, t := range r.Threads {
			instructions += t.Committed
		}
	}
	return cycles, instructions
}

// replayStoreAppends appends recs one by one to a fresh store and reports
// the per-record times, the bytes per record, and the time to merge refs.
func replayStoreAppends(tr *tracer, dir string, recs []store.Record, batches []int, refs []sim.RefRecord) (appendUs []float64, bytesPerRecord, mergeMs float64, err error) {
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	defer st.Close()
	if batches == nil {
		for _, rec := range recs {
			start := time.Now()
			if _, err := st.Append(rec); err != nil {
				return nil, 0, 0, err
			}
			end := time.Now()
			tr.add(span{Name: "store.append", ID: rec.Fingerprint, Start: start, End: end})
			appendUs = append(appendUs, float64(end.Sub(start))/float64(time.Microsecond))
		}
	} else {
		lo := 0
		for _, n := range batches {
			hi := min(lo+n, len(recs))
			start := time.Now()
			if _, err := st.AppendBatch(recs[lo:hi]); err != nil {
				return nil, 0, 0, err
			}
			end := time.Now()
			tr.add(span{Name: "store.append_batch", ID: fmt.Sprint(lo), Start: start, End: end})
			for range recs[lo:hi] {
				appendUs = append(appendUs, float64(end.Sub(start))/float64(time.Microsecond)/float64(hi-lo))
			}
			lo = hi
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if _, err := st.MergeRefs(refs); err != nil {
		return nil, 0, 0, err
	}
	mergeMs = ms(time.Since(start))
	return appendUs, float64(fi.Size()) / float64(len(recs)), mergeMs, nil
}

// timeCampaignPrep times Spec.Requests and MissingCells on a store; the
// diff is MissingCells minus the expansion it contains.
func timeCampaignPrep(e *env, st *store.Store, spec campaign.Spec) error {
	var expand, diff []float64
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		if _, _, err := spec.Requests(); err != nil {
			return err
		}
		mid := time.Now()
		if _, _, err := campaign.MissingCells(st, spec); err != nil {
			return err
		}
		end := time.Now()
		expand = append(expand, ms(mid.Sub(start)))
		diff = append(diff, ms(end.Sub(mid))-ms(mid.Sub(start)))
	}
	if err := e.rep.setPercentile("campaign.expand_ms", "ms", expand, 0.5); err != nil {
		return err
	}
	return e.rep.setPercentile("campaign.diff_ms", "ms", diff, 0.5)
}

// timeStoreOpen times opening the store in dir (a copy each time).
func timeStoreOpen(e *env, src, scratch string) error {
	var opens []float64
	for i := 0; i < setupSamples; i++ {
		if err := copyDir(src, scratch); err != nil {
			return err
		}
		start := time.Now()
		st, err := store.Open(scratch)
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(start)))
		st.Close()
		os.RemoveAll(scratch)
	}
	return e.rep.setPercentile("store.open_ms", "ms", opens, 0.5)
}

// checkAccounted reports the share of the cell wall time the measured layer
// times explain and fails the run when it is outside accountTolerance.
func checkAccounted(e *env, measured, wall time.Duration, what string) error {
	if wall <= 0 {
		return fmt.Errorf("accounting %s: no wall time", what)
	}
	frac := float64(measured) / float64(wall)
	e.rep.set("trace.accounted_frac", "fraction", frac, 1)
	fmt.Fprintf(e.log, "perfbench: layer times explain %.3f of %s (tolerance ±%.2f)\n", frac, what, accountTolerance)
	if frac < 1-accountTolerance || frac > 1+accountTolerance {
		return fmt.Errorf("layer times explain %.3f of %s, outside 1±%.2f", frac, what, accountTolerance)
	}
	return nil
}

// printSelf prints a per-layer self-time table.
func printSelf(e *env, title string, rows [][2]any) {
	fmt.Fprintf(e.log, "perfbench: %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(e.log, "  %-28s %10.3f ms\n", r[0], r[1])
	}
}
