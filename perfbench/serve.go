package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"smtmlp"
	"smtmlp/internal/store"
)

// The serve workload: one open-loop interactive /v1/run stream at a fixed
// rate below saturation beside a closed-loop bulk /v1/batch client, each on
// its own connection, against one service with two tenants.
const (
	runRate        = 10              // interactive /v1/run requests per second
	serveRoundDur  = 5 * time.Second // one server lifetime
	keyInteractive = "k-interactive"
	keyBulk        = "k-bulk"
)

// tenantsConfig has two tenants and no rate limit or quota, so a healthy run
// is never refused.
const tenantsConfig = `{"tenants": [
  {"key": "k-interactive", "name": "interactive"},
  {"key": "k-bulk", "name": "bulk"}
]}`

// serveInputs is everything a serve round needs, built outside the timed
// rounds.
type serveInputs struct {
	tenantsFile string
	refsDir     string // a store holding only the warm-start references
	runs        []runCall
	batches     []batchCall
	wantRun     [][]byte   // expected /v1/run body per run of the pool
	wantBatch   [][][]byte // expected NDJSON lines per batch of the pool
}

func (in *serveInputs) servedArgs() []string {
	return []string{
		"-instructions", fmt.Sprint(serveInstructions),
		"-parallelism", fmt.Sprint(parallelism),
		"-tenants", in.tenantsFile,
		"-store", in.refsDir,
	}
}

// writeServeRefs simulates every catalog benchmark's single-threaded
// reference at the serve budget and configuration and persists them, so the
// service warm-starts with every reference it will look up.
func writeServeRefs(ctx context.Context, dir string) error {
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(serveInstructions), smtmlp.WithParallelism(parallelism))
	names := smtmlp.Benchmarks()
	var reqs []smtmlp.Request
	for i := 0; i < len(names); i += 2 {
		mix := smtmlp.Mix(names[i], names[(i+1)%len(names)])
		reqs = append(reqs, smtmlp.Request{Config: smtmlp.DefaultConfig(2), Workload: mix, Policy: smtmlp.ICount})
	}
	for br := range eng.RunBatch(ctx, reqs) {
		if br.Err != nil {
			return br.Err
		}
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	_, err = st.MergeRefs(eng.Cache().Export())
	return errors.Join(err, st.Close())
}

// groundTruth computes the expected bytes of every pool request with
// Engine.RunRequest, encoded as the service encodes them.
func (in *serveInputs) groundTruth(ctx context.Context) error {
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(serveInstructions), smtmlp.WithParallelism(parallelism))
	var reqs []smtmlp.Request
	for _, c := range in.runs {
		reqs = append(reqs, c.request())
	}
	for _, b := range in.batches {
		reqs = append(reqs, b.requests()...)
	}
	results := make([]smtmlp.BatchResult, len(reqs))
	for br := range eng.RunBatch(ctx, reqs) {
		if br.Err != nil {
			return br.Err
		}
		results[br.Index] = br
	}
	for i := range in.runs {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(results[i].Result); err != nil {
			return err
		}
		in.wantRun = append(in.wantRun, buf.Bytes())
	}
	next := len(in.runs)
	for _, b := range in.batches {
		var lines [][]byte
		for i, req := range b.requests() {
			line, err := json.Marshal(smtmlp.BatchResult{Index: i, Request: req, Result: results[next].Result})
			if err != nil {
				return err
			}
			lines = append(lines, append(line, '\n'))
			next++
		}
		in.wantBatch = append(in.wantBatch, lines)
	}
	return nil
}

// request is the engine request the service builds for a /v1/run body.
func (c runCall) request() smtmlp.Request {
	p, _ := smtmlp.ParsePolicy(c.Policy)
	return smtmlp.Request{
		Config:        smtmlp.DefaultConfig(len(c.Benchmarks)),
		Workload:      smtmlp.Mix(c.Benchmarks...),
		Policy:        p,
		TraceInterval: c.TraceInterval,
	}
}

// requests is the batch's cross-product in the order the service streams
// it: policy-major.
func (b batchCall) requests() []smtmlp.Request {
	var out []smtmlp.Request
	for _, name := range b.Policies {
		p, _ := smtmlp.ParsePolicy(name)
		for _, w := range b.Workloads {
			wl := smtmlp.Mix(w...)
			out = append(out, smtmlp.Request{
				Tag:      fmt.Sprintf("%s/%s", wl.Name(), p),
				Config:   smtmlp.DefaultConfig(len(w)),
				Workload: wl,
				Policy:   p,
			})
		}
	}
	return out
}

// fetchPaperPolicies asks the service which policies the paper evaluates.
func fetchPaperPolicies(ctx context.Context, base string) ([]string, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/policies", nil)
	req.Header.Set("Authorization", "Bearer "+keyInteractive)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/policies: %s", resp.Status)
	}
	var body struct {
		Paper []string `json:"paper"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("GET /v1/policies: %w", err)
	}
	if len(body.Paper) < batchPolicies {
		return nil, fmt.Errorf("GET /v1/policies lists %d paper policies", len(body.Paper))
	}
	return body.Paper, nil
}

// prepareServe writes the tenant file and warm-start references, times the
// service's set-up setupSamples times, and builds the request pool and its
// ground truth from the policies the service lists.
func prepareServe(ctx context.Context, e *env) (*serveInputs, []float64, error) {
	in := &serveInputs{
		tenantsFile: filepath.Join(e.work, "tenants.json"),
		refsDir:     filepath.Join(e.work, "serve-refs"),
	}
	if err := os.WriteFile(in.tenantsFile, []byte(tenantsConfig), 0o644); err != nil {
		return nil, nil, err
	}
	if err := writeServeRefs(ctx, in.refsDir); err != nil {
		return nil, nil, fmt.Errorf("warm-start references: %w", err)
	}
	var setups []float64
	var policies []string
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		s, err := startServed(ctx, e.smtserved, in.servedArgs()...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs(time.Since(start)))
		if policies == nil {
			policies, err = fetchPaperPolicies(ctx, s.url())
		}
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	in.runs, in.batches = servePool(e.seed, policies)
	if err := in.groundTruth(ctx); err != nil {
		return nil, nil, fmt.Errorf("ground truth: %w", err)
	}
	return in, setups, nil
}

// serveRound is what one round of client traffic observed.
type serveRound struct {
	latency   []float64 // /v1/run ms, from each request's due time
	late      []float64 // ms the generator sent after the due time
	ttfb      []float64 // /v1/run ms from send to first response byte
	runBytes  map[bool][]float64
	runIdx    []int // pool index of each answered /v1/run, in send order
	delivered int   // bulk lines delivered before the deadline
	dur       time.Duration
	conns     int // client connections opened
}

// oneConnClient returns a client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// driveServe runs one round of traffic against base for d: the interactive
// open loop and the bulk closed loop, each on one connection. Every response
// is checked against the ground truth; failures go to the report.
func driveServe(ctx context.Context, e *env, in *serveInputs, base string, round int, d time.Duration) serveRound {
	out := serveRound{runBytes: map[bool][]float64{}}
	var mu sync.Mutex
	conns := 0
	countConns := func(ctx context.Context) context.Context {
		return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			ConnectDone: func(_, _ string, err error) {
				if err == nil {
					mu.Lock()
					conns++
					mu.Unlock()
				}
			},
		})
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := oneConnClient()
		defer client.CloseIdleConnections()
		for j := 0; time.Now().Before(deadline) && ctx.Err() == nil; j++ {
			b := (round + j) % len(in.batches)
			n, failed, err := postBatch(countConns(ctx), client, base, in.batches[b], in.wantBatch[b], deadline)
			mu.Lock()
			out.delivered += n
			mu.Unlock()
			e.rep.attempt(len(in.wantBatch[b]))
			if failed > 0 {
				e.rep.fail(failed, "serve bulk batch: %v", err)
			}
		}
	}()

	client := oneConnClient()
	defer client.CloseIdleConnections()
	// Round r sends the pool's requests from r·(requests per round) on, so
	// the rounds of a run walk through the pool.
	next := round * int(serveRoundDur*runRate/time.Second)
	openLoop(ctx, start, deadline, time.Second/runRate, func(due time.Time) {
		idx := next % len(in.runs)
		next++
		sent := time.Now()
		var firstByte time.Time
		rctx := httptrace.WithClientTrace(countConns(ctx), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
		body, err := postRun(rctx, client, base, in.runs[idx], in.wantRun[idx])
		done := time.Now()
		e.rep.attempt(1)
		if err != nil {
			e.rep.fail(1, "serve /v1/run: %v", err)
			return
		}
		out.latency = append(out.latency, ms(done.Sub(due)))
		out.late = append(out.late, ms(sent.Sub(due)))
		out.ttfb = append(out.ttfb, ms(firstByte.Sub(sent)))
		traced := in.runs[idx].TraceInterval > 0
		out.runBytes[traced] = append(out.runBytes[traced], float64(body))
		out.runIdx = append(out.runIdx, idx)
	})
	out.dur = time.Since(start)
	wg.Wait()
	out.conns = conns
	return out
}

// openLoop calls send once per interval from start until deadline, passing
// each call its due time. A call is never made before it is due; when an
// earlier call overran, the next one is made at once and late, and its due
// time stays on the fixed schedule, so latency timed from the due time
// counts the wait the overrun imposed.
func openLoop(ctx context.Context, start, deadline time.Time, interval time.Duration, send func(due time.Time)) {
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		send(due)
	}
}

// postRun sends one /v1/run and checks the body byte for byte.
func postRun(ctx context.Context, client *http.Client, base string, call runCall, want []byte) (int, error) {
	body, _ := json.Marshal(call)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+keyInteractive)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return 0, err
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(got)))
	case !bytes.Equal(got, want):
		return 0, fmt.Errorf("%s/%s: body differs from Engine.RunRequest", strings.Join(call.Benchmarks, "-"), call.Policy)
	}
	return len(got), nil
}

// postBatch sends one /v1/batch and checks every streamed line. It returns
// how many correct lines arrived before the deadline, how many of the
// batch's lines failed, and why.
func postBatch(ctx context.Context, client *http.Client, base string, call batchCall, want [][]byte, deadline time.Time) (delivered, failed int, err error) {
	body, _ := json.Marshal(call)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+keyBulk)
	resp, err := client.Do(req)
	if err != nil {
		return 0, len(want), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, len(want), fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	r := bufio.NewReader(resp.Body)
	for i := range want {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil {
			return delivered, failed + len(want) - i, fmt.Errorf("line %d of %d: %v", i, len(want), rerr)
		}
		if !bytes.Equal(line, want[i]) {
			failed++
			if err == nil {
				err = fmt.Errorf("line %d differs from Engine.RunRequest: %.200s", i, line)
			}
			continue
		}
		if time.Now().Before(deadline) {
			delivered++
		}
	}
	if extra, _ := io.ReadAll(r); len(extra) > 0 {
		failed++
		err = fmt.Errorf("unexpected bytes after %d lines", len(want))
	}
	return delivered, failed, err
}

func runServe(ctx context.Context, e *env) error {
	in, setups, err := prepareServe(ctx, e)
	if err != nil {
		return err
	}
	if e.trace {
		return traceServe(ctx, e, in)
	}
	var (
		latency, late []float64
		delivered     int
		runTime       time.Duration
		peak          float64
		deadline      = time.Now().Add(e.seconds)
	)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		start := time.Now()
		s, err := startServed(ctx, e.smtserved, in.servedArgs()...)
		if err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(start)))
		r := driveServe(ctx, e, in, s.url(), round, serveRoundDur)
		rss, rerr := s.peakRSSMB()
		if err := errors.Join(rerr, s.stop()); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		latency = append(latency, r.latency...)
		late = append(late, r.late...)
		delivered += r.delivered
		runTime += r.dur
		peak = max(peak, rss)
	}
	// The generator's lateness is part of every serve result: if it is not
	// small beside run_p50_ms, the open loop was not open.
	if err := e.rep.setPercentile("gen.late_ms_p90", "ms", late, 0.9); err != nil {
		return err
	}
	return reportEndToEnd(e, setups, delivered, runTime, latency, peak)
}
