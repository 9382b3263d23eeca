// Fleet throughput snapshot: TestFleetPerfSnapshot runs the same campaign
// twice against an in-process 3-worker fleet whose every request pays a
// simulated network round trip, and writes cells/sec plus wire-byte
// accounting for both configurations to -fleet-perf-out (committed as
// BENCH_8.json). The baseline is fixed-size serial dispatch — every lease
// DefaultLeaseSize cells, one lease in flight per worker; the tuned run is
// what fleet.Run does by default — adaptive sizing, pipelined dispatch.
// Both travel the one /v1/work wire, gzip NDJSON. The gate is
// the within-run speedup (tuned cells/sec over baseline cells/sec), which
// is machine-independent: both runs share the host, the injected RTT, and
// the deterministic simulator, so only the dispatch strategy differs. The
// RTT is injected with time.Sleep, which yields the CPU — so pipelining
// shows its overlap even on a single-core runner. Both stores must stay
// byte-identical to single-node execution; that is asserted always, gate or
// not. Without -fleet-perf-out the test skips.
package fleet_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/store"
)

var (
	fleetPerfOut  = flag.String("fleet-perf-out", "", "write the fleet throughput snapshot JSON (e.g. BENCH_8.json) to this path")
	fleetPerfGate = flag.Float64("fleet-perf-gate", 0, "fail if tuned cells/sec is below this multiple of the baseline's (0 disables; CI uses 1.5)")
)

// fleetPerfSection is one measured fleet configuration.
type fleetPerfSection struct {
	Config           string  `json:"config"`
	Seconds          float64 `json:"seconds"`
	Cells            int     `json:"cells"`
	CellsPerSec      float64 `json:"cells_per_sec"`
	LeasesDispatched int     `json:"leases_dispatched"`
	BytesOut         int64   `json:"bytes_out"`
	BytesOutWire     int64   `json:"bytes_out_wire"`
	BytesIn          int64   `json:"bytes_in"`
	BytesInWire      int64   `json:"bytes_in_wire"`
}

// fleetPerfSnapshot is the BENCH_8.json schema.
type fleetPerfSnapshot struct {
	Schema   string           `json:"schema"`
	Workers  int              `json:"workers"`
	RTTMs    int              `json:"rtt_ms"`
	Budget   uint64           `json:"budget"`
	Warmup   uint64           `json:"warmup"`
	Baseline fleetPerfSection `json:"baseline"`
	Tuned    fleetPerfSection `json:"tuned"`
	// Speedup is tuned cells/sec over baseline cells/sec; WireFraction is
	// tuned response wire bytes over baseline's.
	Speedup      float64 `json:"speedup"`
	WireFraction float64 `json:"wire_fraction"`
}

// rttWorker is an in-process worker whose every request sleeps one simulated
// network round trip before being served. Sleeping yields the scheduler, so
// concurrent requests overlap their RTTs the way real network I/O would.
func rttWorker(t *testing.T, rtt time.Duration) *httptest.Server {
	t.Helper()
	srv := newWorker(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(rtt)
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFleetPerfSnapshot(t *testing.T) {
	if *fleetPerfOut == "" {
		t.Skip("no -fleet-perf-out path; fleet throughput snapshot not requested")
	}
	// The RTT is sized to dominate simulation cost even on a single-core
	// host, where one worker's round-trip sleep overlaps another worker's
	// compute: what must differ between the runs is how many round trips
	// each worker serializes, so the round trip has to be the expensive part.
	const (
		budget, warmup = 500, 100
		rtt            = 100 * time.Millisecond
		nWorkers       = 3
	)
	// 150 generated 2-thread mixes x 2 policies = 300 cells, each nearly
	// free to simulate, so the round trips injected above dominate the wall
	// time — exactly the regime where dispatch strategy decides throughput.
	spec := campaign.Spec{
		Name:         "fleet-perf",
		Instructions: budget,
		Warmup:       warmup,
		Policies:     []string{"icount", "mlpflush"},
		Workloads: campaign.WorkloadSpec{
			Generated: &campaign.Generated{Count: 150, Threads: 2, Seed: 11},
		},
	}
	localDir := localGroundTruth(t, spec)

	// run executes the spec against a fresh fleet (cold RefCaches both times,
	// so neither configuration inherits the other's warmup) and returns the
	// measured section. Hedging is disabled to keep the byte accounting an
	// honest function of the dispatch strategy alone.
	run := func(config string, opts fleet.Options) fleetPerfSection {
		workers := make([]string, nWorkers)
		for i := range workers {
			workers[i] = rttWorker(t, rtt).URL
		}
		opts.Workers = workers
		opts.CompleteWait = 250 * time.Millisecond
		opts.StragglerAfter = -1

		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()

		start := time.Now()
		sum, err := fleet.Run(context.Background(), st, spec, opts)
		secs := time.Since(start).Seconds()
		if err != nil {
			t.Fatalf("%s run: %v (summary %+v)", config, err, sum)
		}
		if sum.Executed != sum.Total || sum.Failed != 0 {
			t.Fatalf("%s summary %+v", config, sum)
		}
		assertStoresEqual(t, localDir, dir, "after the "+config+" run")
		// Compression is deterministic for a deterministic payload: every
		// run's bytes must cross the wire strictly smaller than its JSON.
		if sum.BytesInWire >= sum.BytesIn || sum.BytesOutWire >= sum.BytesOut {
			t.Errorf("%s: gzip saved nothing: bytes_in=%d wire=%d, bytes_out=%d wire=%d",
				config, sum.BytesIn, sum.BytesInWire, sum.BytesOut, sum.BytesOutWire)
		}
		return fleetPerfSection{
			Config:           config,
			Seconds:          secs,
			Cells:            sum.Executed,
			CellsPerSec:      float64(sum.Executed) / secs,
			LeasesDispatched: sum.LeasesDispatched,
			BytesOut:         sum.BytesOut,
			BytesOutWire:     sum.BytesOutWire,
			BytesIn:          sum.BytesIn,
			BytesInWire:      sum.BytesInWire,
		}
	}

	// Fixed-size serial dispatch: every lease the seed size, one lease in
	// flight per worker.
	baseline := run("fixed-serial", fleet.Options{
		LeaseSize:     fleet.DefaultLeaseSize,
		PipelineDepth: 1,
	})
	// The current defaults: adaptive sizing toward DefaultLeaseTarget,
	// double-buffered dispatch.
	tuned := run("adaptive-pipelined", fleet.Options{})

	snap := fleetPerfSnapshot{
		Schema:   "smtmlp/fleet-perf/v2",
		Workers:  nWorkers,
		RTTMs:    int(rtt / time.Millisecond),
		Budget:   budget,
		Warmup:   warmup,
		Baseline: baseline,
		Tuned:    tuned,
		Speedup:  tuned.CellsPerSec / baseline.CellsPerSec,
	}
	if baseline.BytesInWire > 0 {
		snap.WireFraction = float64(tuned.BytesInWire) / float64(baseline.BytesInWire)
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(*fleetPerfOut, out, 0o644); err != nil {
		t.Fatalf("writing -fleet-perf-out: %v", err)
	}
	fmt.Printf("fleet-perf: baseline %.1f cells/sec (%d leases, %d wire bytes in)\n",
		baseline.CellsPerSec, baseline.LeasesDispatched, baseline.BytesInWire)
	fmt.Printf("fleet-perf: tuned    %.1f cells/sec (%d leases, %d wire bytes in)\n",
		tuned.CellsPerSec, tuned.LeasesDispatched, tuned.BytesInWire)
	fmt.Printf("fleet-perf: speedup %.2fx, response wire bytes at %.0f%% of baseline\n",
		snap.Speedup, snap.WireFraction*100)

	if *fleetPerfGate > 0 && snap.Speedup < *fleetPerfGate {
		t.Errorf("fleet throughput gate: tuned/baseline speedup %.2fx below required %.2fx",
			snap.Speedup, *fleetPerfGate)
	}
}
