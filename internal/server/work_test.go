// Tests for the /v1/work lease protocol: lifecycle (lease → execute →
// long-poll collect → forget), idempotent re-delivery, validation, the
// busy bound, TTL expiry, shutdown cancellation, and the lease-scoped
// reference export that keeps fleet refs snapshots byte-identical to
// single-node execution.
package server_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smtmlp"
	"smtmlp/internal/server"
)

// leaseCells builds verified work cells for the given mixes under the given
// budget (the fingerprint must be computed exactly as the worker will).
func leaseCells(instructions, warmup uint64, mixes ...[]string) []server.WorkCell {
	cells := make([]server.WorkCell, 0, 2*len(mixes))
	for _, mix := range mixes {
		for _, p := range []smtmlp.Policy{smtmlp.ICount, smtmlp.MLPFlush} {
			req := smtmlp.Request{
				Tag:      fmt.Sprintf("%s/%s", strings.Join(mix, "-"), p),
				Config:   smtmlp.DefaultConfig(len(mix)),
				Workload: smtmlp.Mix(mix...),
				Policy:   p,
			}
			cells = append(cells, server.WorkCell{
				Fingerprint: smtmlp.Fingerprint(req, instructions, warmup),
				Request:     req,
			})
		}
	}
	return cells
}

// leaseBody marshals a LeaseRequest.
func leaseBody(t *testing.T, lr server.LeaseRequest) string {
	t.Helper()
	b, err := json.Marshal(lr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decodeComplete fails the test unless the recorder holds status 200 and an
// NDJSON complete stream, and returns the reassembled response.
func decodeComplete(t *testing.T, rec *httptest.ResponseRecorder) server.CompleteResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	resp, err := server.DecodeCompleteStream(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
	return resp
}

// collect long-polls /v1/work/complete until the lease leaves "running".
func collect(t *testing.T, srv http.Handler, leaseID string) server.CompleteResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := decodeComplete(t, post(t, srv, "/v1/work/complete",
			fmt.Sprintf(`{"lease_id":%q,"wait_ms":1000}`, leaseID)))
		if resp.Lease.Status != "running" {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease %s still running after 30s", leaseID)
		}
	}
}

func TestWorkLeaseLifecycle(t *testing.T) {
	srv := server.New(testEngine())
	const instructions, warmup = 5_000, 1_000
	cells := leaseCells(instructions, warmup, []string{"mcf", "galgel"}, []string{"swim", "twolf"})
	body := leaseBody(t, server.LeaseRequest{
		LeaseID: "l1", Instructions: instructions, Warmup: warmup, Cells: cells,
	})

	rec := post(t, srv, "/v1/work/lease", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d, body %s", rec.Code, rec.Body)
	}
	var status server.LeaseStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.LeaseID != "l1" || status.Status != "running" || status.Total != len(cells) {
		t.Fatalf("accepted lease %+v", status)
	}

	// Re-delivering the same lease is idempotent: acknowledged (200, not
	// 202), not restarted.
	rec = post(t, srv, "/v1/work/lease", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-delivery status %d, body %s", rec.Code, rec.Body)
	}

	resp := collect(t, srv, "l1")
	if resp.Lease.Status != "done" || resp.Lease.Executed != len(cells) || resp.Lease.Failed != 0 {
		t.Fatalf("collected lease %+v", resp.Lease)
	}
	if len(resp.Results) != len(cells) {
		t.Fatalf("collected %d results, want %d", len(resp.Results), len(cells))
	}
	for i, wr := range resp.Results {
		if wr.Fingerprint != cells[i].Fingerprint {
			t.Fatalf("result %d out of cell order: %s", i, wr.Fingerprint)
		}
		if wr.Result == nil || wr.Error != "" || wr.Result.STP <= 0 {
			t.Fatalf("result %d: %+v", i, wr)
		}
	}
	// The lease needed references for its 4 distinct benchmarks, under the
	// lease budget.
	if len(resp.Refs) != 4 {
		t.Fatalf("lease returned %d refs, want 4", len(resp.Refs))
	}
	for _, ref := range resp.Refs {
		if !strings.Contains(ref.Key, fmt.Sprintf("i=%d", instructions)) {
			t.Fatalf("ref key %q is not under the lease budget", ref.Key)
		}
	}

	// Collection forgets the lease.
	wantError(t, post(t, srv, "/v1/work/complete", `{"lease_id":"l1"}`),
		http.StatusNotFound, server.CodeUnknownLease)
	var list server.WorkListResponse
	decodeInto(t, get(t, srv, "/v1/work"), &list)
	if len(list.Leases) != 0 {
		t.Fatalf("worker still lists %d leases after collection", len(list.Leases))
	}
	m := list.Metrics
	if m.LeasesAccepted != 1 || m.LeasesCollected != 1 || m.LeasesActive != 0 ||
		m.CellsExecuted != int64(len(cells)) || m.CellsFailed != 0 {
		t.Fatalf("work metrics %+v", m)
	}
}

func TestWorkLeaseValidation(t *testing.T) {
	srv := server.New(testEngine(), server.WithMaxBatch(4))
	const instructions, warmup = 5_000, 1_000
	cells := leaseCells(instructions, warmup, []string{"mcf", "galgel"})
	okLease := server.LeaseRequest{LeaseID: "v1", Instructions: instructions, Warmup: warmup, Cells: cells}

	t.Run("missing lease_id", func(t *testing.T) {
		lr := okLease
		lr.LeaseID = ""
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeInvalidRequest)
	})
	t.Run("no cells", func(t *testing.T) {
		lr := okLease
		lr.Cells = nil
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeInvalidRequest)
	})
	t.Run("oversized lease", func(t *testing.T) {
		lr := okLease
		lr.Cells = leaseCells(instructions, warmup,
			[]string{"mcf", "galgel"}, []string{"swim", "twolf"}, []string{"vortex", "parser"})
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeBatchTooLarge)
	})
	t.Run("unknown benchmark", func(t *testing.T) {
		lr := okLease
		bad := cells[0]
		bad.Request.Workload = smtmlp.Mix("mcf", "nope")
		lr.Cells = []server.WorkCell{bad}
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeUnknownBenchmark)
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		lr := okLease
		bad := cells[0]
		bad.Fingerprint = "not-the-fingerprint"
		lr.Cells = []server.WorkCell{bad}
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeInvalidRequest)
	})
	t.Run("budget mismatch changes fingerprint", func(t *testing.T) {
		// The same cells delivered under a different budget must be
		// rejected: the fingerprint pins the budget.
		lr := okLease
		lr.Instructions = 9_999
		wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
			http.StatusBadRequest, server.CodeInvalidRequest)
	})
	t.Run("complete without lease_id", func(t *testing.T) {
		wantError(t, post(t, srv, "/v1/work/complete", `{}`),
			http.StatusBadRequest, server.CodeInvalidRequest)
	})
	t.Run("complete unknown lease", func(t *testing.T) {
		wantError(t, post(t, srv, "/v1/work/complete", `{"lease_id":"never-sent"}`),
			http.StatusNotFound, server.CodeUnknownLease)
	})
}

func TestWorkerBusyBound(t *testing.T) {
	// A deliberately slow engine (large budget, serial) so the first lease
	// is still running when the second arrives.
	srv := server.New(testEngine(smtmlp.WithParallelism(1)), server.WithMaxLeases(1))
	const instructions, warmup = 200_000, 50_000
	mixes := [][]string{{"mcf", "galgel"}, {"swim", "twolf"}}
	lr := server.LeaseRequest{
		LeaseID: "busy1", Instructions: instructions, Warmup: warmup,
		Cells: leaseCells(instructions, warmup, mixes...),
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("first lease status %d", rec.Code)
	}
	lr.LeaseID = "busy2"
	wantError(t, post(t, srv, "/v1/work/lease", leaseBody(t, lr)),
		http.StatusTooManyRequests, server.CodeWorkerBusy)

	// Collecting the first lease frees the slot.
	if resp := collect(t, srv, "busy1"); resp.Lease.Status != "done" {
		t.Fatalf("first lease %+v", resp.Lease)
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("post-collection lease status %d, body %s", rec.Code, rec.Body)
	}
	collect(t, srv, "busy2")
}

// TestLeaseQuotaPerTenant is the regression test for lease acceptance
// counting only the global -max-leases bound: a tenant at its own MaxLeases
// quota must be refused with quota_exceeded (its problem — collect a lease)
// while the global bound still answers worker_busy (everyone's problem — try
// another worker), and one tenant's quota must not block another.
func TestLeaseQuotaPerTenant(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := tenantServer(t, `{
		"tenants": [
			{"key": "k-alice", "name": "alice", "max_leases": 1},
			{"key": "k-bob", "name": "bob"}
		]
	}`, 2, []smtmlp.Option{smtmlp.WithParallelism(1)},
		server.WithMaxLeases(2), server.WithBaseContext(ctx))
	defer func() {
		cancel()
		srv.DrainWork()
	}()

	// Slow cells so every lease is still running while the next arrives.
	const instructions, warmup = 200_000, 50_000
	lease := func(id string) string {
		return leaseBody(t, server.LeaseRequest{
			LeaseID: id, Instructions: instructions, Warmup: warmup,
			Cells: leaseCells(instructions, warmup, []string{"mcf", "galgel"}, []string{"swim", "twolf"}),
		})
	}

	if rec := postAs(t, srv, "X-API-Key", "k-alice", "/v1/work/lease", lease("a1")); rec.Code != http.StatusAccepted {
		t.Fatalf("alice's first lease: status %d body %s", rec.Code, rec.Body)
	}
	// Alice is at her own quota: quota_exceeded, NOT worker_busy — the
	// worker still has a free global slot.
	wantError(t, postAs(t, srv, "X-API-Key", "k-alice", "/v1/work/lease", lease("a2")),
		http.StatusTooManyRequests, server.CodeQuotaExceeded)
	// Bob is unaffected by alice's quota and takes the worker's second slot.
	if rec := postAs(t, srv, "X-API-Key", "k-bob", "/v1/work/lease", lease("b1")); rec.Code != http.StatusAccepted {
		t.Fatalf("bob's first lease: status %d body %s", rec.Code, rec.Body)
	}
	// Now the worker itself is full: the global bound answers worker_busy.
	wantError(t, postAs(t, srv, "X-API-Key", "k-bob", "/v1/work/lease", lease("b2")),
		http.StatusTooManyRequests, server.CodeWorkerBusy)

	// Both refusals are attributed per tenant on /metrics, and the active
	// lease gauges are scoped per tenant too.
	var m server.MetricsResponse
	decodeInto(t, get(t, srv, "/metrics"), &m)
	for _, tm := range m.Tenants {
		switch tm.Name {
		case "alice":
			if tm.QuotaDenied != 1 || tm.ActiveLeases != 1 {
				t.Fatalf("alice row %+v", tm)
			}
		case "bob":
			// worker_busy is a global condition, not a tenant quota denial.
			if tm.QuotaDenied != 0 || tm.ActiveLeases != 1 {
				t.Fatalf("bob row %+v", tm)
			}
		}
	}
}

func TestWorkLeaseExpiry(t *testing.T) {
	srv := server.New(testEngine(), server.WithLeaseTTL(30*time.Millisecond))
	const instructions, warmup = 5_000, 1_000
	lr := server.LeaseRequest{
		LeaseID: "exp1", Instructions: instructions, Warmup: warmup,
		Cells: leaseCells(instructions, warmup, []string{"mcf", "galgel"}),
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d", rec.Code)
	}
	// Never collect: the TTL must cancel and forget the lease, even one that
	// finished inside it. So poll the listing, which never collects, and
	// poll the expiry counter rather than the lease's absence: expiry forgets
	// the lease before it counts it.
	deadline := time.Now().Add(10 * time.Second)
	var m server.WorkMetrics
	for {
		var list server.WorkListResponse
		decodeInto(t, get(t, srv, "/v1/work"), &list)
		if m = list.Metrics; m.LeasesExpired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired; last metrics %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.LeasesActive != 0 || m.LeasesCollected != 0 {
		t.Fatalf("expiry metrics %+v", m)
	}
	wantError(t, post(t, srv, "/v1/work/complete", `{"lease_id":"exp1"}`),
		http.StatusNotFound, server.CodeUnknownLease)
	srv.DrainWork()
}

func TestWorkLeaseCanceledOnShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := server.New(testEngine(smtmlp.WithParallelism(1)), server.WithBaseContext(ctx))
	const instructions, warmup = 500_000, 100_000
	lr := server.LeaseRequest{
		LeaseID: "shut1", Instructions: instructions, Warmup: warmup,
		Cells: leaseCells(instructions, warmup, []string{"mcf", "galgel"}, []string{"swim", "twolf"}),
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d", rec.Code)
	}
	cancel()
	srv.DrainWork() // must return promptly once the base context is canceled

	resp := decodeComplete(t, post(t, srv, "/v1/work/complete", `{"lease_id":"shut1","wait_ms":2000}`))
	if resp.Lease.Status != "canceled" || resp.Results != nil {
		t.Fatalf("post-shutdown lease %+v with %d results", resp.Lease, len(resp.Results))
	}
}

// TestWorkCompleteWaitValidation pins the wait_ms contract: negative values
// are rejected up front, and the effective (clamped) wait is echoed in the
// response instead of being silently trimmed to the 30s cap.
func TestWorkCompleteWaitValidation(t *testing.T) {
	srv := server.New(testEngine())
	const instructions, warmup = 5_000, 1_000
	lr := server.LeaseRequest{
		LeaseID: "w1", Instructions: instructions, Warmup: warmup,
		Cells: leaseCells(instructions, warmup, []string{"mcf", "galgel"}),
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d", rec.Code)
	}

	wantError(t, post(t, srv, "/v1/work/complete", `{"lease_id":"w1","wait_ms":-5}`),
		http.StatusBadRequest, server.CodeInvalidRequest)

	// An in-cap wait is echoed verbatim; an over-cap wait comes back clamped
	// to 30s. The lease finishes during the first long-poll, so neither
	// request actually sleeps its full wait.
	resp := decodeComplete(t, post(t, srv, "/v1/work/complete", `{"lease_id":"w1","wait_ms":1000}`))
	if resp.WaitMillis != 1000 {
		t.Fatalf("wait_ms 1000 echoed as %d", resp.WaitMillis)
	}
	for resp.Lease.Status == "running" {
		resp = decodeComplete(t, post(t, srv, "/v1/work/complete", `{"lease_id":"w1","wait_ms":60000}`))
		if resp.WaitMillis != 30000 {
			t.Fatalf("wait_ms 60000 should clamp to 30000, got %d", resp.WaitMillis)
		}
	}
	if resp.Lease.Status != "done" {
		t.Fatalf("lease ended %q", resp.Lease.Status)
	}
}

// TestWorkLeaseRenewalOutlivesTTL is the TTL-vs-slow-worker regression: a
// lease whose execution takes far longer than the server TTL must survive —
// and commit — as long as the coordinator heartbeats it with idempotent
// cells-free re-POSTs.
func TestWorkLeaseRenewalOutlivesTTL(t *testing.T) {
	srv := server.New(testEngine(smtmlp.WithParallelism(1)),
		server.WithLeaseTTL(75*time.Millisecond), server.WithBaseContext(context.Background()))
	const instructions, warmup = 300_000, 50_000 // execution far exceeds the 75ms TTL
	cells := leaseCells(instructions, warmup, []string{"mcf", "galgel"})
	lr := server.LeaseRequest{LeaseID: "rn1", Instructions: instructions, Warmup: warmup, Cells: cells}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d", rec.Code)
	}

	// Heartbeat at TTL/3 until the worker reports the lease done. Each renew
	// is the cheap form: lease_id only, no cells.
	deadline := time.Now().Add(60 * time.Second)
	for {
		time.Sleep(25 * time.Millisecond)
		rec := post(t, srv, "/v1/work/lease", `{"lease_id":"rn1"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("renew status %d, body %s", rec.Code, rec.Body)
		}
		var status server.LeaseStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
			t.Fatal(err)
		}
		if status.Status == "done" {
			break
		}
		if status.Status != "running" {
			t.Fatalf("renewed lease ended %q before collection", status.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never finished")
		}
	}

	resp := collect(t, srv, "rn1")
	if resp.Lease.Status != "done" || len(resp.Results) != len(cells) {
		t.Fatalf("renewed lease collected %+v with %d results", resp.Lease, len(resp.Results))
	}
	var list server.WorkListResponse
	decodeInto(t, get(t, srv, "/v1/work"), &list)
	if list.Metrics.LeasesExpired != 0 || list.Metrics.LeasesRenewed == 0 || list.Metrics.LeasesCollected != 1 {
		t.Fatalf("renewal metrics %+v", list.Metrics)
	}
}

// TestWorkGzipNDJSONRoundTrip drives the compressed streaming wire end to
// end: a gzip lease body in, a gzip NDJSON complete response out, asserting
// the streamed lines reassemble into exactly what Engine.RunBatch computes
// for the same cells, and that /metrics accounts bytes on both sides of the
// compression boundary.
func TestWorkGzipNDJSONRoundTrip(t *testing.T) {
	const instructions, warmup = 5_000, 1_000
	cells := leaseCells(instructions, warmup, []string{"mcf", "galgel"}, []string{"swim", "twolf"})

	// Ground truth: the same cells through Engine.RunBatch at the lease's
	// budget, and the references that engine computed for them.
	eng := smtmlp.NewEngine(smtmlp.WithInstructions(instructions), smtmlp.WithWarmup(warmup))
	reqs := make([]smtmlp.Request, len(cells))
	for i, c := range cells {
		reqs[i] = c.Request
	}
	want := make([]server.WorkResult, len(cells))
	for br := range eng.RunBatch(context.Background(), reqs) {
		if br.Err != nil {
			t.Fatalf("ground-truth cell %d: %v", br.Index, br.Err)
		}
		res := br.Result
		want[br.Index] = server.WorkResult{Fingerprint: cells[br.Index].Fingerprint, Request: br.Request, Result: &res}
	}

	srv := server.New(testEngine())
	var zbody bytes.Buffer
	zw := gzip.NewWriter(&zbody)
	if _, err := zw.Write([]byte(leaseBody(t, server.LeaseRequest{
		LeaseID: "g1", Instructions: instructions, Warmup: warmup, Cells: cells,
	}))); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/work/lease", &zbody)
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("gzip lease status %d, body %s", rec.Code, rec.Body)
	}

	// Collect over the streamed compressed wire.
	var got server.CompleteResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		req := httptest.NewRequest("POST", "/v1/work/complete",
			strings.NewReader(`{"lease_id":"g1","wait_ms":1000}`))
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("complete status %d, body %s", rec.Code, rec.Body)
		}
		if rec.Header().Get("Content-Encoding") != "gzip" ||
			rec.Header().Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("negotiated headers %v", rec.Header())
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = server.DecodeCompleteStream(zr); err != nil {
			t.Fatal(err)
		}
		if got.Lease.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never finished")
		}
	}

	// The streamed lines must reassemble to exactly the engine's results and
	// references.
	if got.Lease.Status != "done" || got.WaitMillis != 1000 {
		t.Fatalf("streamed lease %+v wait %d", got.Lease, got.WaitMillis)
	}
	wantJSON, _ := json.Marshal(struct {
		R []server.WorkResult
		F []smtmlp.RefProfile
	}{want, eng.Cache().Export()})
	gotJSON, _ := json.Marshal(struct {
		R []server.WorkResult
		F []smtmlp.RefProfile
	}{got.Results, got.Refs})
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("streamed payload diverges from Engine.RunBatch\nengine: %s\nndjson: %s", wantJSON, gotJSON)
	}

	// Byte accounting: the wire side of the compressed legs must be smaller
	// than the JSON side.
	var list server.WorkListResponse
	decodeInto(t, get(t, srv, "/v1/work"), &list)
	m := list.Metrics
	if m.BytesIn == 0 || m.BytesInWire == 0 || m.BytesInWire >= m.BytesIn {
		t.Fatalf("request compression not accounted: bytes_in=%d bytes_in_wire=%d", m.BytesIn, m.BytesInWire)
	}
	if m.BytesOut == 0 || m.BytesOutWire == 0 || m.BytesOutWire >= m.BytesOut {
		t.Fatalf("response compression not accounted: bytes_out=%d bytes_out_wire=%d", m.BytesOut, m.BytesOutWire)
	}
}

// TestWorkLeaseRefsAreScoped pins the refs filter: traffic at another budget
// (here, /v1/run on the service engine) must not leak into a lease's
// reference export, or a fleet coordinator's refs snapshot would diverge
// from single-node execution.
func TestWorkLeaseRefsAreScoped(t *testing.T) {
	srv := server.New(testEngine()) // service engine budget: 6000/1500
	rec := post(t, srv, "/v1/run", `{"benchmarks":["vortex","parser"],"policy":"icount"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up run status %d", rec.Code)
	}

	const instructions, warmup = 5_000, 1_000 // lease budget: a different key space
	lr := server.LeaseRequest{
		LeaseID: "refs1", Instructions: instructions, Warmup: warmup,
		Cells: leaseCells(instructions, warmup, []string{"mcf", "galgel"}),
	}
	if rec := post(t, srv, "/v1/work/lease", leaseBody(t, lr)); rec.Code != http.StatusAccepted {
		t.Fatalf("lease status %d", rec.Code)
	}
	resp := collect(t, srv, "refs1")
	if len(resp.Refs) != 2 {
		t.Fatalf("lease exported %d refs, want exactly its own 2", len(resp.Refs))
	}
	for _, ref := range resp.Refs {
		if strings.Contains(ref.Key, "i=6000") || strings.Contains(ref.Key, "vortex") ||
			strings.Contains(ref.Key, "parser") {
			t.Fatalf("foreign ref leaked into the lease export: %q", ref.Key)
		}
	}
}
