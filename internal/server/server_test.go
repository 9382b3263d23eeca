// Integration suite for the HTTP surface: every endpoint's happy path, the
// typed validation errors, incremental NDJSON streaming, the golden
// determinism property (same batch twice — cold cache, then warm — yields
// byte-identical payloads), client-disconnect cancellation with a clean
// drain, and a concurrency hammer pitting parallel clients against one
// shared engine. Everything runs real simulations at a tiny instruction
// budget; determinism makes every assertion exact.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtmlp"
	"smtmlp/internal/server"
	"smtmlp/internal/sim"
	"smtmlp/internal/store"
)

// testEngine returns a laptop-fast engine; simulations take ~20ms each.
func testEngine(opts ...smtmlp.Option) *smtmlp.Engine {
	return smtmlp.NewEngine(append([]smtmlp.Option{
		smtmlp.WithInstructions(6_000), smtmlp.WithWarmup(1_500),
	}, opts...)...)
}

// post drives one request through the handler without a network socket.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// decodeInto fails the test unless the recorder holds status 200 and a JSON
// body decoding into v.
func decodeInto(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
}

// wantError asserts a typed error body with the given status and code.
func wantError(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, status, rec.Body)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %s", rec.Body)
	}
	if body.Error.Code != code || body.Error.Message == "" {
		t.Fatalf("error body %s, want code %q with a message", rec.Body, code)
	}
}

func TestHealthz(t *testing.T) {
	srv := server.New(testEngine())
	var body map[string]string
	decodeInto(t, get(t, srv, "/healthz"), &body)
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	srv := server.New(testEngine())

	var pol server.PoliciesResponse
	decodeInto(t, get(t, srv, "/v1/policies"), &pol)
	if len(pol.Policies) != 9 || len(pol.Paper) != 6 {
		t.Fatalf("policies %d / paper %d, want 9 / 6", len(pol.Policies), len(pol.Paper))
	}
	if pol.Paper[0] != "icount" || pol.Paper[5] != "mlpflush" {
		t.Fatalf("paper policies out of order: %v", pol.Paper)
	}

	var wl server.WorkloadsResponse
	decodeInto(t, get(t, srv, "/v1/workloads"), &wl)
	if len(wl.Benchmarks) != 26 || len(wl.TwoThread) != 36 || len(wl.FourThread) != 30 {
		t.Fatalf("catalog %d/%d/%d, want 26/36/30",
			len(wl.Benchmarks), len(wl.TwoThread), len(wl.FourThread))
	}
}

func TestRunHappyPathMatchesEngine(t *testing.T) {
	eng := testEngine()
	srv := server.New(eng)

	var got smtmlp.WorkloadResult
	decodeInto(t, post(t, srv, "/v1/run",
		`{"benchmarks":["mcf","galgel"],"policy":"mlpflush"}`), &got)

	want, err := testEngine().RunWorkload(context.Background(),
		smtmlp.DefaultConfig(2), smtmlp.Mix("mcf", "galgel"), smtmlp.MLPFlush)
	if err != nil {
		t.Fatal(err)
	}
	if got.STP != want.STP || got.ANTT != want.ANTT || got.Cycles != want.Cycles {
		t.Fatalf("served result STP=%v ANTT=%v cycles=%d; engine STP=%v ANTT=%v cycles=%d",
			got.STP, got.ANTT, got.Cycles, want.STP, want.ANTT, want.Cycles)
	}
	if got.Policy != "mlpflush" || len(got.Threads) != 2 || got.Threads[0].Benchmark != "mcf" {
		t.Fatalf("served result malformed: %+v", got)
	}
}

func TestRunConfigOverrides(t *testing.T) {
	srv := server.New(testEngine())

	var small, base smtmlp.WorkloadResult
	decodeInto(t, post(t, srv, "/v1/run",
		`{"benchmarks":["mcf","galgel"],"policy":"icount","config":{"rob_size":64,"mem_latency":600,"prefetch":false}}`), &small)
	decodeInto(t, post(t, srv, "/v1/run",
		`{"benchmarks":["mcf","galgel"],"policy":"icount"}`), &base)
	if small.Cycles == base.Cycles {
		t.Fatal("config overrides had no effect on the simulation")
	}

	cfg := smtmlp.DefaultConfig(2).ScaleWindow(64)
	cfg.Mem.MemLatency = 600
	cfg.Mem.EnablePrefetch = false
	want, err := testEngine().RunWorkload(context.Background(), cfg,
		smtmlp.Mix("mcf", "galgel"), smtmlp.ICount)
	if err != nil {
		t.Fatal(err)
	}
	if small.STP != want.STP || small.Cycles != want.Cycles {
		t.Fatalf("override result STP=%v cycles=%d; direct engine STP=%v cycles=%d",
			small.STP, small.Cycles, want.STP, want.Cycles)
	}
}

func TestRunValidationErrors(t *testing.T) {
	srv := server.New(testEngine(), server.WithMaxThreads(4))
	cases := []struct {
		name, body, code string
	}{
		{"unknown benchmark", `{"benchmarks":["mcf","nope"],"policy":"icount"}`, server.CodeUnknownBenchmark},
		{"unknown policy", `{"benchmarks":["mcf"],"policy":"nope"}`, server.CodeUnknownPolicy},
		{"empty workload", `{"benchmarks":[],"policy":"icount"}`, server.CodeInvalidRequest},
		{"malformed json", `{"benchmarks":`, server.CodeInvalidRequest},
		{"unknown field", `{"benchmarks":["mcf"],"policy":"icount","bogus":1}`, server.CodeInvalidRequest},
		{"too many threads", `{"benchmarks":["mcf","swim","galgel","twolf","gcc"],"policy":"icount"}`, server.CodeTooManyThreads},
		{"bad rob_size", `{"benchmarks":["mcf"],"policy":"icount","config":{"rob_size":5000}}`, server.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantError(t, post(t, srv, "/v1/run", tc.body), http.StatusBadRequest, tc.code)
		})
	}
}

func TestBatchValidationErrors(t *testing.T) {
	srv := server.New(testEngine(), server.WithMaxBatch(4))
	cases := []struct {
		name, body, code string
	}{
		{"empty", `{"workloads":[],"policies":["icount"]}`, server.CodeInvalidRequest},
		{"no policies", `{"workloads":[["mcf"]],"policies":[]}`, server.CodeInvalidRequest},
		{"unknown benchmark", `{"workloads":[["mcf","nope"]],"policies":["icount"]}`, server.CodeUnknownBenchmark},
		{"unknown policy", `{"workloads":[["mcf"]],"policies":["icount","nope"]}`, server.CodeUnknownPolicy},
		{"too large", `{"workloads":[["mcf"],["swim"],["gcc"]],"policies":["icount","flush"]}`, server.CodeBatchTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantError(t, post(t, srv, "/v1/batch", tc.body), http.StatusBadRequest, tc.code)
		})
	}
}

// TestOversizedBodyRejected pins the pre-decode size cap: a huge body is
// refused with 413 before it can allocate, not after parsing.
func TestOversizedBodyRejected(t *testing.T) {
	srv := server.New(testEngine())
	body := `{"benchmarks":["mcf","` + strings.Repeat("x", 2<<20) + `"],"policy":"icount"}`
	rec := post(t, srv, "/v1/run", body)
	wantError(t, rec, http.StatusRequestEntityTooLarge, server.CodeInvalidRequest)
}

func TestMethodAndPathErrors(t *testing.T) {
	srv := server.New(testEngine())
	if rec := get(t, srv, "/v1/run"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", rec.Code)
	}
	if rec := get(t, srv, "/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nope status %d, want 404", rec.Code)
	}
}

// readBatchLines decodes every NDJSON line of a finished batch response.
func readBatchLines(t *testing.T, body []byte) []smtmlp.BatchResult {
	t.Helper()
	var out []smtmlp.BatchResult
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var br smtmlp.BatchResult
		if err := json.Unmarshal(line, &br); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", line, err)
		}
		out = append(out, br)
	}
	return out
}

const smallBatch = `{"workloads":[["mcf","galgel"],["swim","twolf"]],"policies":["icount","flush","mlpflush"]}`

// TestBatchPolicyMajorOrder pins the execution/emission order: all workloads
// under the first policy, then the next — and results arrive in submission
// order with contiguous indexes.
func TestBatchPolicyMajorOrder(t *testing.T) {
	srv := server.New(testEngine())
	rec := post(t, srv, "/v1/batch", smallBatch)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	lines := readBatchLines(t, rec.Body.Bytes())
	wantTags := []string{
		"mcf-galgel/icount", "swim-twolf/icount",
		"mcf-galgel/flush", "swim-twolf/flush",
		"mcf-galgel/mlpflush", "swim-twolf/mlpflush",
	}
	if len(lines) != len(wantTags) {
		t.Fatalf("%d lines, want %d", len(lines), len(wantTags))
	}
	for i, br := range lines {
		if br.Index != i {
			t.Fatalf("line %d has index %d — stream must be in submission order", i, br.Index)
		}
		if br.Request.Tag != wantTags[i] {
			t.Fatalf("line %d tag %q, want %q (policy-major order)", i, br.Request.Tag, wantTags[i])
		}
		if br.Err != nil {
			t.Fatalf("line %d failed: %v", i, br.Err)
		}
		if br.Result.STP <= 0 {
			t.Fatalf("line %d degenerate result: %+v", i, br.Result)
		}
	}
}

// TestBatchMatchesSequential verifies the streamed results equal direct
// sequential engine runs exactly (the simulator is deterministic).
func TestBatchMatchesSequential(t *testing.T) {
	srv := server.New(testEngine())
	lines := readBatchLines(t, post(t, srv, "/v1/batch", smallBatch).Body.Bytes())

	seq := testEngine()
	for _, br := range lines {
		want, err := seq.RunWorkload(context.Background(), br.Request.Config,
			br.Request.Workload, br.Request.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if br.Result.STP != want.STP || br.Result.ANTT != want.ANTT || br.Result.Cycles != want.Cycles {
			t.Fatalf("%s: served STP=%v ANTT=%v cycles=%d; sequential STP=%v ANTT=%v cycles=%d",
				br.Request.Tag, br.Result.STP, br.Result.ANTT, br.Result.Cycles,
				want.STP, want.ANTT, want.Cycles)
		}
	}
}

// TestBatchGoldenDeterminism submits the same batch twice — cold cache, then
// warm — and requires byte-identical NDJSON payloads: cache state must be
// observationally invisible, and the stream order deterministic.
func TestBatchGoldenDeterminism(t *testing.T) {
	eng := testEngine()
	srv := server.New(eng)

	cold := post(t, srv, "/v1/batch", smallBatch)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body)
	}
	m := eng.Metrics()
	if m.CacheMisses == 0 {
		t.Fatal("cold run computed no references — test setup broken")
	}

	warm := post(t, srv, "/v1/batch", smallBatch)
	m2 := eng.Metrics()
	if m2.CacheMisses != m.CacheMisses {
		t.Fatalf("warm run recomputed references: misses %d -> %d", m.CacheMisses, m2.CacheMisses)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("cold and warm payloads differ:\ncold:\n%s\nwarm:\n%s", cold.Body, warm.Body)
	}
}

// TestBatchStreamsIncrementally is the acceptance-criterion test: over a
// real HTTP connection, the first NDJSON line is readable while most of the
// batch is still queued — results arrive before the batch finishes.
func TestBatchStreamsIncrementally(t *testing.T) {
	eng := testEngine(smtmlp.WithParallelism(1))
	srv := server.New(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 12 requests on one worker: after the first result arrives, ~11 are
	// still queued behind it.
	body := `{"workloads":[["mcf","galgel"],["swim","twolf"]],"policies":["icount","stall","pstall","mlpstall","flush","mlpflush"]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var br smtmlp.BatchResult
	if err := json.Unmarshal(first, &br); err != nil {
		t.Fatalf("first line %s: %v", first, err)
	}
	if br.Index != 0 || br.Err != nil {
		t.Fatalf("first line index %d err %v", br.Index, br.Err)
	}
	if depth := eng.Metrics().QueueDepth; depth == 0 {
		t.Fatal("queue already empty when the first line arrived — streaming is not incremental")
	}

	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if lines := readBatchLines(t, append(first, rest...)); len(lines) != 12 {
		t.Fatalf("%d lines, want 12", len(lines))
	}
}

// waitForDrain polls until the engine reports no queued or executing work.
func waitForDrain(t *testing.T, eng *smtmlp.Engine, deadline time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for time.Since(start) < deadline {
		m := eng.Metrics()
		if m.QueueDepth == 0 && m.InFlight == 0 {
			return time.Since(start)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := eng.Metrics()
	t.Fatalf("engine did not drain within %v (queue=%d, in-flight=%d)", deadline, m.QueueDepth, m.InFlight)
	return 0
}

// countingGate admits every simulation at once and counts how many started.
type countingGate struct{ started atomic.Int64 }

func (g *countingGate) Acquire(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.started.Add(1)
	return func() {}, nil
}

// TestBatchClientDisconnectCancelsAndDrains is the other acceptance
// criterion: a client that walks away mid-stream cancels the batch; the
// worker pool drains promptly (not after finishing the whole batch) and no
// goroutines leak.
func TestBatchClientDisconnectCancelsAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("disconnect test runs a deliberately long batch")
	}
	gate := &countingGate{}
	eng := testEngine(smtmlp.WithParallelism(1), smtmlp.WithSlotGate(gate))
	srv := server.New(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	goroutinesBefore := runtime.NumGoroutine()

	// 80 workloads x 3 policies = 240 sequential simulations. A fast kernel
	// can finish them all in about as long as a drain may take, so the test
	// counts the simulations that started: a canceled batch starts only the
	// few in flight when the client left.
	var workloads []string
	for i := 0; i < 40; i++ {
		workloads = append(workloads, `["mcf","galgel"]`, `["swim","twolf"]`)
	}
	body := fmt.Sprintf(`{"workloads":[%s],"policies":["icount","stall","flush"]}`,
		strings.Join(workloads, ","))

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(resp.Body)
	if _, err := r.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // the client walks away mid-stream
	left := time.Now()

	drain := waitForDrain(t, eng, 10*time.Second)
	// A canceled batch drains in roughly one in-flight simulation.
	if drain > 3*time.Second {
		t.Fatalf("drain took %v — looks like the batch ran to completion instead of canceling", drain)
	}
	if started := gate.started.Load(); started > 240/10 {
		t.Fatalf("%d of 240 simulations started — the batch was not canceled when the client left", started)
	}

	// The engine drains before the handler returns; poll until it has.
	var metrics server.MetricsResponse
	for {
		decodeInto(t, get(t, srv, "/metrics"), &metrics)
		if metrics.Server.BatchesActive == 0 {
			break
		}
		if time.Since(left) > 10*time.Second {
			t.Fatalf("batches_active %d 10s after the client left", metrics.Server.BatchesActive)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if metrics.Server.ClientsDropped == 0 {
		t.Fatal("server never observed the disconnect")
	}

	// No leaked workers: the goroutine count returns to (near) baseline once
	// the pool drains and idle conns close.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, started with %d — batch workers leaked", runtime.NumGoroutine(), goroutinesBefore)
}

func TestMetricsEndpoint(t *testing.T) {
	eng := testEngine()
	srv := server.New(eng)

	var before server.MetricsResponse
	decodeInto(t, get(t, srv, "/metrics"), &before)

	post(t, srv, "/v1/run", `{"benchmarks":["mcf","galgel"],"policy":"icount"}`)

	var after server.MetricsResponse
	decodeInto(t, get(t, srv, "/metrics"), &after)
	if after.Server.RequestsTotal <= before.Server.RequestsTotal {
		t.Fatalf("requests_total did not advance: %d -> %d",
			before.Server.RequestsTotal, after.Server.RequestsTotal)
	}
	if after.Engine.CacheMisses == 0 || after.Engine.CacheEntries == 0 {
		t.Fatalf("engine cache counters empty after a run: %+v", after.Engine)
	}
	if after.Engine.InFlight != 0 || after.Engine.QueueDepth != 0 {
		t.Fatalf("idle server reports in_flight=%d queue_depth=%d",
			after.Engine.InFlight, after.Engine.QueueDepth)
	}
	// A store-less server must not report store gauges at all.
	if after.Store != nil {
		t.Fatalf("store-less server reports store metrics %+v", after.Store)
	}

	// Lease traffic shows up in the work gauges.
	cells := leaseCells(5_000, 1_000, []string{"mcf", "galgel"})
	rec := post(t, srv, "/v1/work/lease", leaseBody(t, server.LeaseRequest{
		LeaseID: "m1", Instructions: 5_000, Warmup: 1_000, Cells: cells,
	}))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d, body %s", rec.Code, rec.Body)
	}
	collect(t, srv, "m1")
	decodeInto(t, get(t, srv, "/metrics"), &after)
	if after.Work.LeasesAccepted != 1 || after.Work.LeasesCollected != 1 ||
		after.Work.CellsExecuted != int64(len(cells)) {
		t.Fatalf("work metrics after one collected lease: %+v", after.Work)
	}
}

// TestMetricsEndpointStoreGauges pins the store block of /metrics: appended
// results, dedupe hits, and the refs snapshot age a fleet operator watches
// to confirm merges are landing.
func TestMetricsEndpointStoreGauges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := server.New(testEngine(), server.WithStore(st))

	var m server.MetricsResponse
	decodeInto(t, get(t, srv, "/metrics"), &m)
	if m.Store == nil {
		t.Fatal("store-backed server reports no store metrics")
	}
	if m.Store.Results != 0 || m.Store.AppendsTotal != 0 || m.Store.RefsSnapshotAgeSeconds != -1 {
		t.Fatalf("fresh store metrics %+v", m.Store)
	}

	req := smtmlp.Request{Tag: "t", Config: smtmlp.DefaultConfig(2),
		Workload: smtmlp.Mix("mcf", "galgel"), Policy: smtmlp.ICount}
	rec := store.Record{Fingerprint: smtmlp.Fingerprint(req, 5_000, 1_000), Request: req}
	for i := 0; i < 2; i++ { // second append is a dedupe hit
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.MergeRefs([]sim.RefRecord{{Key: "metrics-test-key"}}); err != nil {
		t.Fatal(err)
	}
	decodeInto(t, get(t, srv, "/metrics"), &m)
	if m.Store.Results != 1 || m.Store.AppendsTotal != 1 || m.Store.DedupeHits != 1 {
		t.Fatalf("store metrics after append+dup: %+v", m.Store)
	}
	if m.Store.RefsSnapshotAgeSeconds < 0 {
		t.Fatalf("refs snapshot written but age is %v", m.Store.RefsSnapshotAgeSeconds)
	}
}

// TestConcurrentClientsHammer pits parallel clients against one server (one
// engine, one shared RefCache) and requires every response to match the
// sequential ground truth exactly. Run under -race in CI, this doubles as
// the data-race check on the cache single-flight and counter paths.
func TestConcurrentClientsHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer runs dozens of simulations across parallel clients")
	}
	eng := testEngine()
	srv := server.New(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type runCase struct {
		body string
		wl   smtmlp.Workload
		p    smtmlp.Policy
	}
	cases := []runCase{
		{`{"benchmarks":["mcf","galgel"],"policy":"mlpflush"}`, smtmlp.Mix("mcf", "galgel"), smtmlp.MLPFlush},
		{`{"benchmarks":["swim","twolf"],"policy":"icount"}`, smtmlp.Mix("swim", "twolf"), smtmlp.ICount},
		{`{"benchmarks":["mcf","galgel"],"policy":"flush"}`, smtmlp.Mix("mcf", "galgel"), smtmlp.Flush},
		{`{"benchmarks":["swim","twolf"],"policy":"stall"}`, smtmlp.Mix("swim", "twolf"), smtmlp.Stall},
	}
	// Sequential ground truth from an independent cold engine.
	want := make([]smtmlp.WorkloadResult, len(cases))
	seq := testEngine()
	for i, c := range cases {
		res, err := seq.RunWorkload(context.Background(),
			smtmlp.DefaultConfig(2), c.wl, c.p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*(len(cases)+1))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i, tc := range cases {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
				if err != nil {
					errs <- err
					return
				}
				var got smtmlp.WorkloadResult
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if got.STP != want[i].STP || got.ANTT != want[i].ANTT || got.Cycles != want[i].Cycles {
					errs <- fmt.Errorf("client %d case %d: got STP=%v ANTT=%v, want STP=%v ANTT=%v",
						client, i, got.STP, got.ANTT, want[i].STP, want[i].ANTT)
					return
				}
			}
			// And one streamed batch per client.
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
				strings.NewReader(`{"workloads":[["mcf","galgel"],["swim","twolf"]],"policies":["icount","mlpflush"]}`))
			if err != nil {
				errs <- err
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			if len(lines) != 4 {
				errs <- fmt.Errorf("client %d: %d batch lines, want 4", client, len(lines))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := eng.Metrics()
	if m.CacheMisses > 4 {
		t.Fatalf("hammer recomputed references: %d misses for 4 distinct benchmarks", m.CacheMisses)
	}
}
