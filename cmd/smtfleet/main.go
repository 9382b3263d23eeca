// Command smtfleet runs a declarative simulation campaign across a fleet of
// remote smtserved workers, merging every result into the local
// authoritative store. It is cmd/smtsweep's distributed twin: same specs,
// same store, same summary — the spec's missing cells are partitioned into
// leases and pulled through the workers' /v1/work endpoints instead of a
// local engine, and the store comes out byte-identical either way.
//
// Usage:
//
//	smtfleet -spec spec.json -store DIR -workers http://h1:8344,http://h2:8344 \
//	         [-resume] [-lease-size N] [-lease-target D] [-pipeline N] \
//	         [-lease-ttl D] [-max-attempts N] [-straggler-after D] [-quiet]
//
// By default leases are sized adaptively: each worker's cells/sec is tracked
// and its next lease sized to take about -lease-target of wall time, so fast
// workers pull big leases while slow ones stay small; -lease-size N pins a
// fixed size instead. Dispatch is pipelined (-pipeline leases in flight per
// worker, default 2), lease and result bodies always travel gzip-compressed,
// and results stream back as NDJSON.
//
// Workers need no flags beyond being up ("smtserved -addr :8344"); they hold
// no state a coordinator depends on. The fleet tolerates worker loss (health
// probes with backoff retire dead workers and requeue their leases),
// re-dispatches straggling leases to idle workers, heartbeats long-running
// leases so slow-but-alive workers are never cancelled mid-execution, and
// absorbs every duplicate execution through the store's content-addressed
// dedupe. Ctrl-C, a crashed coordinator, or losing the whole fleet all leave
// the store resumable: run again with -resume (or fall back to local
// smtsweep -resume) to fill the remaining gaps.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/obs"
	"smtmlp/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("smtfleet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	specPath := fs.String("spec", "", `campaign spec file ("-" reads stdin)`)
	storeDir := fs.String("store", "", "result store directory (created if missing)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (http://host:port)")
	resume := fs.Bool("resume", false, "allow filling the gaps of a partially-run spec")
	leaseSize := fs.Int("lease-size", 0, "fixed cells per lease (0 = adaptive sizing toward -lease-target)")
	leaseTarget := fs.Duration("lease-target", fleet.DefaultLeaseTarget, "wall time an adaptively-sized lease aims for")
	pipeline := fs.Int("pipeline", fleet.DefaultPipelineDepth, "leases in flight per worker (1 = serial dispatch)")
	leaseTTL := fs.Duration("lease-ttl", fleet.DefaultLeaseTTL, "max lifetime of an unrenewed lease on a worker")
	maxAttempts := fs.Int("max-attempts", fleet.DefaultMaxAttempts, "lease deliveries per chunk before the run fails")
	straggler := fs.Duration("straggler-after", fleet.DefaultStraggler, "re-dispatch leases in flight longer than this (negative disables)")
	quiet := fs.Bool("quiet", false, "suppress progress and fleet event lines")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Structured lease-lifecycle logs go to errOut (stderr), independent of
	// -quiet: quiet silences the human progress lines on stdout, while the
	// machine-readable log stream is controlled only by -log-level.
	logger, err := obs.NewLogger(errOut, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(errOut, "smtfleet: %v\n", err)
		return 2
	}
	if *specPath == "" || *storeDir == "" || *workers == "" {
		fmt.Fprintln(errOut, "smtfleet: -spec, -store and -workers are required")
		return 2
	}
	var urls []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, w)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(errOut, "smtfleet: -workers lists no worker URLs")
		return 2
	}

	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(errOut, "smtfleet: %v\n", err)
		return 2
	}
	_, fps, err := spec.Requests()
	if err != nil {
		fmt.Fprintf(errOut, "smtfleet: invalid spec: %v\n", err)
		return 2
	}

	st, err := store.OpenWithLogger(*storeDir, logger)
	if err != nil {
		fmt.Fprintf(errOut, "smtfleet: %v\n", err)
		return 1
	}
	defer st.Close()

	// Same operator guard as smtsweep: an overlap without -resume usually
	// means the wrong store (or an interrupted run the operator should know
	// about), so refuse loudly instead of silently filling gaps.
	overlap := 0
	for _, fp := range fps {
		if st.Has(fp) {
			overlap++
		}
	}
	if overlap > 0 && !*resume {
		fmt.Fprintf(errOut, "smtfleet: store already holds %d of this spec's %d results; pass -resume to fill the remaining gaps\n",
			overlap, len(fps))
		return 1
	}

	opts := fleet.Options{
		Workers:        urls,
		LeaseSize:      *leaseSize,
		LeaseTarget:    *leaseTarget,
		PipelineDepth:  *pipeline,
		LeaseTTL:       *leaseTTL,
		MaxAttempts:    *maxAttempts,
		StragglerAfter: *straggler,
		Logger:         logger,
	}
	if !*quiet {
		opts.Progress = func(p campaign.Progress) {
			fmt.Fprintf(out, "progress: %d/%d done (%d cached, %d executed, %d failed)\n",
				p.Skipped+p.Executed+p.Failed, p.Total, p.Skipped, p.Executed, p.Failed)
		}
		opts.Eventf = func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
	sum, runErr := fleet.Run(ctx, st, spec, opts)

	name := sum.Name
	if name == "" {
		name = "campaign"
	}
	fmt.Fprintf(out, "%s: total=%d skipped=%d executed=%d failed=%d duplicates=%d leases=%d renewed=%d retried=%d workers_lost=%d refs_merged=%d wire_out=%d/%d wire_in=%d/%d\n",
		name, sum.Total, sum.Skipped, sum.Executed, sum.Failed, sum.Duplicates,
		sum.LeasesDispatched, sum.LeasesRenewed, sum.LeasesRetried, sum.WorkersLost, sum.RefsMerged,
		sum.BytesOutWire, sum.BytesOut, sum.BytesInWire, sum.BytesIn)
	if !*quiet {
		for _, ws := range sum.Workers {
			fmt.Fprintf(out, "worker %s: leases=%d cells=%d cells_per_sec=%.1f lease_size=%d peak_depth=%d\n",
				ws.Worker, ws.Leases, ws.Cells, ws.CellsPerSec, ws.LeaseSize, ws.PeakDepth)
		}
	}

	if runErr != nil {
		if errors.Is(runErr, smtmlp.ErrCanceled) {
			fmt.Fprintf(errOut, "smtfleet: interrupted; run again with -resume to finish the remaining %d cells\n",
				sum.Total-sum.Skipped-sum.Executed-sum.Failed)
		} else {
			fmt.Fprintf(errOut, "smtfleet: %v\n", runErr)
		}
		return 1
	}

	rows, err := campaign.Summarize(st, spec)
	if err != nil {
		fmt.Fprintf(errOut, "smtfleet: summarizing: %v\n", err)
		return 1
	}
	campaign.WriteSummaryTable(out, rows)
	return 0
}

// readSpec loads the campaign spec, rejecting unknown fields so a typo'd
// dimension fails loudly instead of silently sweeping the baseline.
func readSpec(path string) (campaign.Spec, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec campaign.Spec
	if err := dec.Decode(&spec); err != nil {
		return campaign.Spec{}, fmt.Errorf("decoding spec %s: %w", path, err)
	}
	return spec, nil
}
