package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"smtmlp"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run's output
// while the server goroutine writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServed runs the binary's run() on an ephemeral port and returns the
// base URL and a cancel-and-wait shutdown function.
func startServed(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], func() int {
				cancel()
				select {
				case code := <-done:
					return code
				case <-time.After(20 * time.Second):
					t.Fatal("server did not shut down")
					return -1
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	t.Fatalf("server never reported its address; output: %q", out.String())
	return "", nil
}

// TestServedEndToEnd boots the real binary path (flags, listener, engine,
// handler), exercises a run and a streamed batch over TCP, and verifies
// SIGINT-style cancellation drains into a clean exit.
func TestServedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end server test runs real simulations")
	}
	url, shutdown := startServed(t, "-instructions", "6000", "-warmup", "1500")

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Post(url+"/v1/run", "application/json",
		strings.NewReader(`{"benchmarks":["mcf","galgel"],"policy":"mlpflush"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"stp"`)) {
		t.Fatalf("run status %d body %s", resp.StatusCode, body)
	}

	resp, err = http.Post(url+"/v1/batch", "application/json",
		strings.NewReader(`{"workloads":[["mcf","galgel"]],"policies":["icount","mlpflush"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := bytes.Count(bytes.TrimSpace(body), []byte("\n")) + 1; resp.StatusCode != http.StatusOK || n != 2 {
		t.Fatalf("batch status %d, %d lines: %s", resp.StatusCode, n, body)
	}

	http.DefaultClient.CloseIdleConnections()
	if code := shutdown(); code != 0 {
		t.Fatalf("shutdown exit code %d", code)
	}
}

var (
	publicListenRE = regexp.MustCompile(`smtserved listening on (\S+)`)
	debugListenRE  = regexp.MustCompile(`smtserved debug listening on (\S+)`)
)

// TestServedDebugAddrPprof boots the server with -debug-addr and pins the
// profiling contract: the pprof surface answers on the debug listener and
// only there — the public mux never exposes /debug/pprof.
func TestServedDebugAddrPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, out)
	}()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("server did not shut down")
		}
	}()

	var publicAddr, debugAddr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && (publicAddr == "" || debugAddr == "") {
		s := out.String()
		if m := debugListenRE.FindStringSubmatch(s); m != nil {
			debugAddr = m[1]
			// The debug line also matches the public pattern; strip it before
			// looking for the real public address.
			s = strings.ReplaceAll(s, "debug listening on "+debugAddr, "")
		}
		if m := publicListenRE.FindStringSubmatch(s); m != nil {
			publicAddr = m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	if publicAddr == "" || debugAddr == "" {
		t.Fatalf("listeners never reported; output: %q", out.String())
	}

	get := func(addr, path string) int {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(debugAddr, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("debug listener /debug/pprof/ status %d", code)
	}
	if code := get(debugAddr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("debug listener /debug/pprof/cmdline status %d", code)
	}
	if code := get(publicAddr, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("public listener serves /debug/pprof/ (status %d); it must stay debug-only", code)
	}
	if code := get(publicAddr, "/healthz"); code != http.StatusOK {
		t.Fatalf("public listener /healthz status %d", code)
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestServedBadLogFlags pins the usage errors of the structured-log flags.
func TestServedBadLogFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-log-format", "yaml"},
		{"-log-level", "loud"},
	} {
		out := &syncBuffer{}
		if code := run(context.Background(), args, out); code != 2 {
			t.Fatalf("args %v exited %d, want 2", args, code)
		}
	}
}

// TestServedStalledHeaderReaped proves the hardened http.Server reaps a
// connection that opens and then never finishes sending its request headers
// (a slow-loris client): the read side observes the close well before the
// server's shutdown machinery is involved.
func TestServedStalledHeaderReaped(t *testing.T) {
	url, shutdown := startServed(t, "-read-header-timeout", "300ms")
	defer shutdown()

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A started-but-never-finished header block: no terminating blank line.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	if err == nil || n > 0 {
		t.Fatalf("stalled connection got a response (%d bytes, err %v); want server-side close", n, err)
	}
	if os.IsTimeout(err) {
		t.Fatalf("server never reaped the stalled connection (read timed out after %v)", time.Since(start))
	}
}

// writeTenants writes a tenants.json and returns its path.
func writeTenants(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServedTenantsEndToEnd boots a multi-tenant server from a tenants.json
// and walks the admission surface over real TCP: unauthenticated 401s,
// authenticated runs, an exhausted token bucket's 429 with its Retry-After
// header, per-tenant /metrics rows, and a SIGHUP hot reload that makes a
// freshly added API key resolve without a restart.
func TestServedTenantsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end server test runs real simulations")
	}
	cfgPath := writeTenants(t, filepath.Join(t.TempDir(), "tenants.json"), `{
		"tenants": [
			{"key": "k-ada", "name": "ada", "weight": 4, "rate": 0.2, "burst": 1},
			{"key": "k-bulk", "name": "bulk", "weight": 1}
		]
	}`)
	url, shutdown := startServed(t, "-instructions", "6000", "-warmup", "1500", "-tenants", cfgPath)

	do := func(key, path, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest("POST", url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}
	runBody := `{"benchmarks":["mcf","galgel"],"policy":"icount"}`

	// No key: 401 with the typed body and a challenge header.
	resp, body := do("", "/v1/run", runBody)
	if resp.StatusCode != http.StatusUnauthorized || !strings.Contains(body, `"unauthorized"`) {
		t.Fatalf("no-key run: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 carries no WWW-Authenticate challenge")
	}

	// ada's burst of 1: the first run is admitted, the immediate second one
	// is rate-limited with an honest Retry-After.
	resp, body = do("k-ada", "/v1/run", runBody)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"stp"`) {
		t.Fatalf("authenticated run: status %d body %s", resp.StatusCode, body)
	}
	resp, body = do("k-ada", "/v1/run", runBody)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, `"rate_limited"`) {
		t.Fatalf("burst run: status %d body %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q; want a positive integer", resp.Header.Get("Retry-After"))
	}

	// bulk's bucket is independent (and unlimited).
	if resp, body = do("k-bulk", "/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk tenant run: status %d body %s", resp.StatusCode, body)
	}

	// /metrics (outside /v1, no auth) carries one row per tenant.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`"tenants"`, `"ada"`, `"bulk"`, `"rate_limited":1`} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %s: %s", want, mbody)
		}
	}

	// Hot reload: an unknown key stays 401 until the file gains it and
	// SIGHUP swaps the new tenant set in.
	if resp, _ = do("k-carol", "/v1/run", runBody); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pre-reload carol: status %d; want 401", resp.StatusCode)
	}
	writeTenants(t, cfgPath, `{
		"tenants": [
			{"key": "k-ada", "name": "ada", "weight": 4, "rate": 0.2, "burst": 1},
			{"key": "k-bulk", "name": "bulk", "weight": 1},
			{"key": "k-carol", "name": "carol"}
		]
	}`)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, body = do("k-carol", "/v1/run", runBody); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("carol never resolved after SIGHUP reload: status %d body %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	http.DefaultClient.CloseIdleConnections()
	if code := shutdown(); code != 0 {
		t.Fatalf("shutdown exit code %d", code)
	}
}

// TestServedShutdownCancelsInFlightBatch proves the graceful-drain path: a
// batch is mid-stream when the signal context fires; the server cancels the
// request contexts, drains and exits 0 without waiting for the whole batch.
func TestServedShutdownCancelsInFlightBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end server test runs real simulations")
	}
	url, shutdown := startServed(t, "-instructions", "6000", "-warmup", "1500", "-parallelism", "1")

	// 30 sequential simulations: far more than can finish before shutdown.
	var workloads []string
	for i := 0; i < 15; i++ {
		workloads = append(workloads, `["mcf","galgel"]`)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json",
		strings.NewReader(fmt.Sprintf(`{"workloads":[%s],"policies":["icount","flush"]}`,
			strings.Join(workloads, ","))))
	if err != nil {
		t.Fatal(err)
	}
	// Read one byte so the stream is known to be live, then shut down with
	// the batch still running.
	first := make([]byte, 1)
	if _, err := io.ReadAtLeast(resp.Body, first, 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code := shutdown()
	elapsed := time.Since(start)
	// The handler drains the batch before the server stops: canceled cells
	// still stream, as error lines. Count the cells that delivered a result.
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(first), resp.Body))
	results := 0
	for {
		var line smtmlp.BatchResult
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("reading the batch stream after shutdown: %v", err)
		}
		if line.Err == nil {
			results++
		}
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if code != 0 {
		t.Fatalf("shutdown exit code %d", code)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v — in-flight batch was not canceled", elapsed)
	}
	if results >= 30 {
		t.Fatalf("the stream delivered all %d results — the in-flight batch ran to completion instead of canceling", results)
	}
}
