package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
	"smtmlp/internal/tenant"
)

// inProcessServe is the service wired as cmd/smtserved wires it with
// -tenants and -store, but in this process so the traced run can install
// its hooks: a slot gate around the scheduler and a handler wrapper.
type inProcessServe struct {
	eng     *smtmlp.Engine
	tbl     *tenant.Table
	handler *server.Server
	st      *store.Store
	srv     *http.Server
	errc    chan error
	url     string
}

func startInProcess(ctx context.Context, in *serveInputs, tr *tracer) (*inProcessServe, error) {
	tbl, err := tenant.Parse([]byte(tenantsConfig))
	if err != nil {
		return nil, err
	}
	sched := tenant.NewScheduler(parallelism, tbl.Boost())
	var gate smtmlp.SlotGate = sched
	if tr != nil {
		gate = &tracingGate{inner: sched, tr: tr, class: func(ctx context.Context) string {
			_, class := tenant.FromContext(ctx)
			return class.String()
		}}
	}
	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(serveInstructions),
		smtmlp.WithParallelism(parallelism),
		smtmlp.WithSlotGate(gate),
	)
	st, err := store.Open(in.refsDir)
	if err != nil {
		return nil, err
	}
	eng.Cache().Seed(st.Refs())
	p := &inProcessServe{eng: eng, tbl: tbl, st: st, errc: make(chan error, 1)}
	p.handler = server.New(eng,
		server.WithStore(st),
		server.WithTenants(tbl, gate),
		server.WithLogger(obs.Discard()),
		server.WithBaseContext(ctx),
	)
	var h http.Handler = p.handler
	if tr != nil {
		h = spanHandler(p.handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	p.url = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { p.errc <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inProcessServe) stop() error {
	err := p.srv.Shutdown(context.Background())
	if serr := <-p.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	p.handler.DrainWork()
	p.handler.DrainCampaigns()
	return errors.Join(err, p.st.Close())
}

// spanHandler records each request's handler time as a span and tags the
// request context with the span's ID, which the slot gate then sees.
func spanHandler(next http.Handler, tr *tracer) http.Handler {
	var mu sync.Mutex
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		id := fmt.Sprintf("req-%d", n)
		mu.Unlock()
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, id)))
		tr.add(span{Name: "server.handler", ID: id, Parent: r.URL.Path, Start: start, End: time.Now()})
	})
}

// traceServe runs one untraced and one traced round against the in-process
// service, then derives the tenant, server, wire and kernel metrics.
func traceServe(ctx context.Context, e *env, in *serveInputs) error {
	untracedRound := func() (serveRound, error) {
		p, err := startInProcess(ctx, in, nil)
		if err != nil {
			return serveRound{}, err
		}
		r := driveServe(ctx, e, in, p.url, 0, e.seconds/2)
		return r, p.stop()
	}
	untraced, err := untracedRound()
	if err != nil {
		return err
	}

	tr := &tracer{}
	p, err := startInProcess(ctx, in, tr)
	if err != nil {
		return err
	}
	h0, m0, ev0 := p.eng.Cache().Stats()
	traced := driveServe(ctx, e, in, p.url, 1, e.seconds)
	h1, m1, ev1 := p.eng.Cache().Stats()
	// The kernel replay runs at the service's own budgets, warm-up included.
	instructions, warmup := p.eng.Instructions(), p.eng.Warmup()
	var rejected int64
	for _, t := range p.tbl.Tenants() {
		m := t.MetricsSnapshot()
		rejected += m.RateLimited + m.QuotaDenied
	}
	if err := p.stop(); err != nil {
		return err
	}

	e.rep.set("sim.ref_hits", "count", float64(h1-h0), 1)
	e.rep.set("sim.ref_misses", "count", float64(m1-m0), 1)
	e.rep.set("sim.ref_evictions", "count", float64(ev1-ev0), 1)
	e.rep.set("sim.ref_ms", "ms", 0, 0) // every reference was warm-started
	if m1 != m0 {
		e.rep.fail(1, "serve computed %d references; all should be warm", m1-m0)
	}
	e.rep.set("tenant.rejected", "count", float64(rejected), 1)

	waits := map[string][]float64{}
	waitOf := map[string]time.Duration{}
	for _, class := range []string{"interactive", "bulk"} {
		for _, s := range tr.named("tenant.slot_wait." + class) {
			waits[class] = append(waits[class], ms(s.dur()))
			waitOf[s.ID] += s.dur()
		}
	}
	if err := e.rep.setPercentile("tenant.slot_wait_ms_p50.interactive", "ms", waits["interactive"], 0.5); err != nil {
		return err
	}
	if err := e.rep.setPercentile("tenant.slot_wait_ms_p90.interactive", "ms", waits["interactive"], 0.9); err != nil {
		return err
	}
	if err := e.rep.setPercentile("tenant.slot_wait_ms_p50.bulk", "ms", waits["bulk"], 0.5); err != nil {
		return err
	}
	var held time.Duration
	heldOf := map[string]time.Duration{}
	cellSpans := tr.named("sim.cell")
	for _, s := range cellSpans {
		held += s.dur()
		heldOf[s.ID] += s.dur()
	}
	e.rep.set("sim.pool_busy", "fraction", float64(held)/float64(traced.dur*parallelism), len(cellSpans))

	// The pool's cells, replayed once each and checked against the ground
	// truth the service's answers were checked against; a /v1/run's kernel
	// time is its cell's replay.
	var cells []campaign.Cell
	results := map[string]smtmlp.WorkloadResult{}
	runFP := make([]string, len(in.runs))
	decoded := make([]smtmlp.WorkloadResult, len(in.runs))
	for i, c := range in.runs {
		runFP[i] = fmt.Sprintf("run-%d", i)
		cells = append(cells, campaign.Cell{Index: len(cells), Fingerprint: runFP[i], Request: c.request()})
		if err := json.Unmarshal(in.wantRun[i], &decoded[i]); err != nil {
			return err
		}
		results[runFP[i]] = decoded[i]
	}
	for b, call := range in.batches {
		for i, req := range call.requests() {
			fp := fmt.Sprintf("batch-%d-%d", b, i)
			cells = append(cells, campaign.Cell{Index: len(cells), Fingerprint: fp, Request: req})
			var br smtmlp.BatchResult
			if err := json.Unmarshal(in.wantBatch[b][i], &br); err != nil {
				return err
			}
			results[fp] = br.Result
		}
	}
	kernel, err := replayKernel(ctx, tr, cells, results, instructions, warmup)
	if err != nil {
		return err
	}
	cycles, committed := resultTotals(results)
	if err := reportKernel(e, kernel, len(results), cycles, committed); err != nil {
		return err
	}

	// /v1/run handler spans in arrival order match the client's send order:
	// the interactive stream uses one connection, one request at a time.
	var handlers []span
	for _, s := range tr.named("server.handler") {
		if s.Parent == "/v1/run" {
			handlers = append(handlers, s)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].Start.Before(handlers[j].Start) })
	if len(handlers) != len(traced.runIdx) {
		return fmt.Errorf("%d /v1/run handler spans for %d answered requests", len(handlers), len(traced.runIdx))
	}
	var runSelf []float64
	var wall, measured time.Duration
	for _, h := range handlers {
		runSelf = append(runSelf, ms(h.dur()-waitOf[h.ID]-heldOf[h.ID]))
		wall += h.dur()
		measured += waitOf[h.ID] + heldOf[h.ID]
	}
	if err := e.rep.setPercentile("server.run_self_ms_p50", "ms", runSelf, 0.5); err != nil {
		return err
	}

	// Encoding happens inside the handler; replay it on each answered
	// request's result.
	encode := map[bool][]float64{}
	for _, idx := range traced.runIdx {
		start := time.Now()
		if err := json.NewEncoder(io.Discard).Encode(decoded[idx]); err != nil {
			return err
		}
		t := in.runs[idx].TraceInterval > 0
		encode[t] = append(encode[t], float64(time.Since(start))/float64(time.Microsecond))
	}
	for _, t := range []bool{false, true} {
		suffix := map[bool]string{false: "untraced", true: "traced"}[t]
		if err := e.rep.setPercentile("server.encode_us_p50."+suffix, "us", encode[t], 0.5); err != nil {
			return err
		}
		if err := e.rep.setPercentile("server.result_bytes_p50."+suffix, "bytes", traced.runBytes[t], 0.5); err != nil {
			return err
		}
	}
	if err := e.rep.setPercentile("http.ttfb_ms_p50", "ms", traced.ttfb, 0.5); err != nil {
		return err
	}
	e.rep.set("http.conns_opened", "count", float64(traced.conns), 1)
	if err := e.rep.setPercentile("gen.late_ms_p90", "ms", traced.late, 0.9); err != nil {
		return err
	}
	perCell := func(r serveRound) float64 { return r.dur.Seconds() / float64(r.delivered) }
	e.rep.set("trace.overhead_frac", "fraction", perCell(traced)/perCell(untraced)-1, traced.delivered+untraced.delivered)

	n := float64(len(handlers))
	var waitRun, heldRun time.Duration
	for _, h := range handlers {
		waitRun += waitOf[h.ID]
		heldRun += heldOf[h.ID]
	}
	var kernelRun float64
	for _, idx := range traced.runIdx {
		kernelRun += kernel.cellMs[runFP[idx]]
	}
	printSelf(e, fmt.Sprintf("serve self time per /v1/run (%d requests)", len(handlers)), [][2]any{
		{"handler wall", ms(wall) / n},
		{"tenant slot wait", ms(waitRun) / n},
		{"core (kernel replay)", kernelRun / n},
		{"sim self (slot held - kernel)", (ms(heldRun) - kernelRun) / n},
		{"server self", (ms(wall) - ms(waitRun) - ms(heldRun)) / n},
	})
	if err := tr.write(e.spans, fmt.Sprintf("serve-seed%d.ndjson", e.seed)); err != nil {
		return err
	}
	// The tenant and sim spans nest in the handler's and are timed in the
	// same instant, so host-speed drift between the round and the kernel
	// replay cannot skew this check; the replay only splits the slot hold
	// into core and sim self time above.
	return checkAccounted(e, measured, wall, "serve /v1/run handler time")
}
