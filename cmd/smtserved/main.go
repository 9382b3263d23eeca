// Command smtserved serves the SMT simulator over HTTP: one long-lived
// Engine with a shared reference cache behind the REST/NDJSON surface of
// internal/server.
//
// Usage:
//
//	smtserved [-addr :8344] [-instructions N] [-warmup N] [-parallelism N]
//	          [-cache-size N] [-max-batch N] [-max-threads N] [-store DIR]
//	          [-max-leases N] [-lease-ttl D] [-tenants FILE]
//	          [-read-header-timeout D]
//
// With -store, the server opens the persistent result store at DIR,
// warm-starts its reference cache from it, and enables the asynchronous
// campaign endpoints (POST/GET /v1/campaigns) backed by the same store.
//
// With -tenants, the server is multi-tenant: FILE (see internal/tenant's
// Config) declares API-keyed tenants with per-tenant rate limits, concurrency
// quotas and scheduling weights. Every /v1 request must then authenticate
// (Authorization: Bearer <key> or X-API-Key), admission enforces the tenant's
// limits (429 with a typed body and an honest Retry-After), and a weighted
// scheduler arbitrates the engine's simulation slots across tenants so
// interactive /v1/run traffic preempts bulk campaign and lease cells at the
// next slot boundary. SIGHUP re-reads FILE and swaps the tenant set
// atomically — in-flight work finishes under the limits it was admitted with,
// and a bad edit leaves the previous set installed. Without -tenants the
// server is single-tenant and behaves exactly as before.
//
// Every smtserved is also a fleet worker: the /v1/work lease endpoints let a
// cmd/smtfleet coordinator drive this process as one executor of a
// distributed campaign (no -store needed on workers — results flow back to
// the coordinator's store). -max-leases bounds concurrently-held leases and
// -lease-ttl caps how long an unrenewed lease is kept before its execution
// is canceled and its state dropped; coordinators extend that deadline by
// idempotently re-POSTing the lease as a heartbeat. Lease bodies may arrive
// gzip-compressed (Content-Encoding: gzip), and results always stream back
// as NDJSON, gzip-compressed when the request's Accept-Encoding allows it.
//
// Quickstart:
//
//	smtserved -addr :8344 &
//	curl -s localhost:8344/v1/run -d '{"benchmarks":["mcf","galgel"],"policy":"mlpflush"}'
//	curl -sN localhost:8344/v1/batch \
//	  -d '{"workloads":[["mcf","galgel"],["swim","twolf"]],"policies":["icount","mlpflush"]}'
//
// The process drains gracefully on SIGINT/SIGTERM: listening stops, every
// in-flight request's context is canceled (which cancels its simulations and
// drains the batch worker pool), and the server exits once handlers return.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"smtmlp"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
	"smtmlp/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("smtserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	instructions := fs.Uint64("instructions", 300_000, "per-thread instruction budget per simulation")
	warmup := fs.Uint64("warmup", 0, "warm-up instructions (0 = budget/4)")
	parallelism := fs.Int("parallelism", 0, "concurrent simulations per batch (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 0, "reference cache bound in profiles (0 = default)")
	maxBatch := fs.Int("max-batch", server.DefaultMaxBatch, "max simulations per /v1/batch call")
	maxThreads := fs.Int("max-threads", server.DefaultMaxThreads, "max benchmarks per workload")
	storeDir := fs.String("store", "", "result store directory enabling the /v1/campaigns endpoints (empty = campaigns disabled)")
	maxLeases := fs.Int("max-leases", server.DefaultMaxLeases, "max concurrently-held fleet work leases")
	leaseTTL := fs.Duration("lease-ttl", server.DefaultLeaseTTL, "max lifetime of an uncollected work lease")
	tenantsPath := fs.String("tenants", "", "tenant config JSON enabling multi-tenant auth, quotas and slot scheduling (empty = single-tenant)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "max time to read a request's headers before the connection is reaped")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	debugAddr := fs.String("debug-addr", "", "separate listen address serving net/http/pprof (empty = pprof disabled; never exposed on -addr)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Structured logs go to stderr so they never interleave with the stdout
	// lines existing tooling parses.
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// The tenant table and slot scheduler are built before the engine because
	// the scheduler is the engine's slot gate: every simulation the engine
	// admits passes through it.
	var tbl *tenant.Table
	var gate smtmlp.SlotGate
	if *tenantsPath != "" {
		tbl, err = tenant.Load(*tenantsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		slots := tbl.Slots()
		if slots <= 0 {
			// Default the slot pool to the simulation parallelism: the gate
			// then never throttles a lone tenant below full capacity, it only
			// decides who gets the slots under contention.
			if slots = *parallelism; slots <= 0 {
				slots = runtime.GOMAXPROCS(0)
			}
		}
		sched := tenant.NewScheduler(slots, tbl.Boost())
		gate = sched
		fmt.Fprintf(out, "smtserved multi-tenant: %d tenants, %d engine slots\n",
			len(tbl.Tenants()), sched.Capacity())
	}

	eng := smtmlp.NewEngine(
		smtmlp.WithInstructions(*instructions),
		smtmlp.WithWarmup(*warmup),
		smtmlp.WithParallelism(*parallelism),
		smtmlp.WithCacheSize(*cacheSize),
		smtmlp.WithSlotGate(gate),
	)
	opts := []server.Option{
		server.WithMaxBatch(*maxBatch),
		server.WithMaxThreads(*maxThreads),
		server.WithMaxLeases(*maxLeases),
		server.WithLeaseTTL(*leaseTTL),
		server.WithLogger(logger),
		// Campaigns and work leases run on the signal context: SIGINT/SIGTERM
		// interrupts them cleanly; a re-POSTed spec resumes from the store and
		// a canceled lease is re-dispatched by its coordinator.
		server.WithBaseContext(ctx),
	}
	if tbl != nil {
		opts = append(opts, server.WithTenants(tbl, gate))
		// SIGHUP hot-reloads the tenant file. A failed reload (bad edit,
		// missing file) keeps the current tenant set and only logs.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-hup:
					if err := tbl.Reload(); err != nil {
						fmt.Fprintf(out, "smtserved tenant reload failed (keeping current set): %v\n", err)
						logger.Warn("tenant reload failed; keeping current set", "err", err)
					} else {
						fmt.Fprintf(out, "smtserved reloaded %d tenants from %s\n", len(tbl.Tenants()), *tenantsPath)
						logger.Info("tenants reloaded", "tenants", len(tbl.Tenants()), "path", *tenantsPath)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	var handler *server.Server
	// Leases execute detached from any HTTP request; wait for them to observe
	// the canceled base context before exiting (and, with -store, before the
	// store closes).
	defer func() {
		if handler != nil {
			handler.DrainWork()
		}
	}()
	if *storeDir != "" {
		st, err := store.OpenWithLogger(*storeDir, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer st.Close()
		// Campaigns run detached from any HTTP request: wait for them to
		// observe the (by then canceled) base context and finish committing
		// before the deferred st.Close above runs. LIFO defer order makes
		// the drain happen first.
		defer func() {
			if handler != nil {
				handler.DrainCampaigns()
			}
		}()
		// Warm-start the service engine from the store's persisted
		// single-threaded references: restarts skip reference re-simulation.
		if n := eng.Cache().Seed(st.Refs()); n > 0 {
			fmt.Fprintf(out, "smtserved warm-started %d reference profiles from %s\n", n, *storeDir)
		}
		opts = append(opts, server.WithStore(st))
	}
	handler = server.New(eng, opts...)

	// Live profiling on its own listener, never the public mux: bind
	// -debug-addr to loopback (or a firewalled interface) and the pprof
	// surface stays invisible to API clients.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dsrv := &http.Server{
			Handler:           dmux,
			ReadHeaderTimeout: *readHeaderTimeout,
			BaseContext:       func(net.Listener) context.Context { return ctx },
		}
		defer dsrv.Close()
		go dsrv.Serve(dln)
		fmt.Fprintf(out, "smtserved debug listening on %s (pprof)\n", dln.Addr())
		logger.Info("debug listener up", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{
		Handler: handler,
		// Self-protection against misbehaving clients: a connection that
		// stalls mid-header is reaped, idle keep-alive connections are closed
		// eventually, and header blocks are capped well under the default 1MB.
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
		// Tie every request context to the signal context: on SIGINT/SIGTERM
		// in-flight simulations cancel and batch pools drain instead of
		// holding shutdown hostage.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	fmt.Fprintf(out, "smtserved listening on %s (instructions=%d, parallelism=%d)\n",
		ln.Addr(), eng.Instructions(), eng.Parallelism())
	logger.Info("listening", "addr", ln.Addr().String(),
		"instructions", eng.Instructions(), "parallelism", eng.Parallelism())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "forced shutdown:", err)
		srv.Close()
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(out, "smtserved drained and stopped")
	return 0
}
