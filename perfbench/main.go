// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator the three ways users run it — a local campaign (sweep), the
// multi-tenant HTTP service (serve) and the leased fleet (fleet) — checks
// every output against ground truth, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload sweep|serve|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the workload once more with hooks and replays, and
// reports the per-layer metrics. README.md documents every metric.
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
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed whose sweep digests are committed in golden.json.
const defaultSeed = 1

// parallelism is the simulation concurrency of every workload: the benchmark
// host has two CPUs, and every workload uses at most two simulation threads
// and at most two client connections.
const parallelism = 2

// env is one invocation's configuration and result sink.
type env struct {
	seed      uint64
	seconds   time.Duration
	trace     bool
	work      string // scratch directory, removed at exit
	spans     string // directory the traced run writes its spans to
	smtserved string // the smtserved binary serve and fleet deploy
	rep       *report
	log       io.Writer
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, serve or fleet")
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	smtserved := fs.String("smtserved", filepath.Join(".bench_build", "bin", "smtserved"), "smtserved binary for serve and fleet")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for the workloads' stores and files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runners := map[string]func(context.Context, *env) error{
		"sweep": runSweep,
		"serve": runServe,
		"fleet": runFleet,
	}
	runner, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want sweep, serve or fleet)\n", *workload)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *traced == 1,
		work:      dir,
		spans:     filepath.Join(filepath.Dir(filepath.Dir(dir)), "spans"),
		smtserved: *smtserved,
		rep:       newReport(),
		log:       stderr,
	}
	endToEnd, perLayer, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := runner(ctx, e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	if err := e.rep.write(stdout, want, e.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.rep.failed > 0 {
		return 1
	}
	return 0
}

// metricDef is one metric of BENCHMARK.json, the single list of what a run
// reports.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetrics reads the end-to-end and per-layer metric lists from the
// BENCHMARK.json at the root of the checkout the benchmark runs in.
func loadMetrics(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// metric is one reported value with the number of samples behind it and,
// for a percentile, the quartiles of those samples.
type metric struct {
	value   float64
	unit    string
	samples int
	q1, q3  float64
}

// report accumulates one invocation's metrics and operation counts. The
// counts may be updated from several client goroutines.
type report struct {
	metrics   map[string]metric
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, value float64, samples int) {
	r.metrics[name] = metric{value: value, unit: unit, samples: samples}
}

// setPercentile reports the q-quantile of xs, refusing (as an error) when
// too few samples lie beyond it.
func (r *report) setPercentile(name, unit string, xs []float64, q float64) error {
	v, err := percentile(xs, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.metrics[name] = metric{value: v, unit: unit, samples: len(xs), q1: q1, q3: q3}
	return nil
}

// attempt counts n operations; fail counts n of them as failed, with the
// reason kept for the summary on standard error.
func (r *report) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// accountCells records a campaign-shaped round of `missing` cells and
// returns how many of them count as completed. A round that stopped with err
// fails every cell it did not run, and at least one operation even when it
// stopped before expanding the spec or after every cell ran; none of its
// cells count. Otherwise a cell that failed is a failure, and when mismatch
// (the store differing from its ground truth) is set, every committed cell
// fails too.
func (r *report) accountCells(what string, missing, executed int, err, mismatch error) (completed int) {
	if err != nil {
		n := max(missing-executed, 1)
		r.attempt(max(missing, n))
		r.fail(n, "%s: %v", what, err)
		return 0
	}
	r.attempt(missing)
	if executed < missing {
		r.fail(missing-executed, "%s: %d of %d cells failed", what, missing-executed, missing)
	}
	if mismatch != nil {
		r.fail(executed, "%s: %v", what, mismatch)
		return 0
	}
	return executed
}

func (r *report) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints a table of the wanted metrics with their sample counts, then
// the JSON result line. A traced run reports a layer the workload does not
// have as 0; an end-to-end metric must always be measured.
func (r *report) write(w io.Writer, want []metricDef, traced bool) error {
	if r.attempted < 1 {
		return errors.New("no operations attempted")
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			m = metric{unit: d.Unit}
		}
		if m.unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", d.Name, m.unit, d.Unit)
		}
		fmt.Fprintf(w, "%-38s %14.6g %-9s samples=%d%s\n", d.Name, m.value, d.Unit, m.samples, m.quartiles())
		out.Metrics[d.Name] = metricJSON{Value: m.value, Unit: d.Unit}
	}
	var extra []string
	for name := range r.metrics {
		if !hasMetric(want, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-38s %14.6g %-9s samples=%d%s (not in the result line)\n", name, m.value, m.unit, m.samples, m.quartiles())
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (m metric) quartiles() string {
	if m.q1 == 0 && m.q3 == 0 {
		return ""
	}
	return fmt.Sprintf(" q1=%.6g q3=%.6g", m.q1, m.q3)
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// reportEndToEnd sets the five end-to-end metrics shared by all workloads.
func reportEndToEnd(e *env, setups []float64, cells int, runTime time.Duration, runMs []float64, peakMB float64) error {
	if err := e.rep.setPercentile("setup_s", "s", setups, 0.5); err != nil {
		return err
	}
	if cells == 0 || runTime <= 0 {
		return fmt.Errorf("no cells completed")
	}
	e.rep.set("cells_per_s", "cells/s", float64(cells)/runTime.Seconds(), cells)
	if err := e.rep.setPercentile("run_p50_ms", "ms", runMs, 0.5); err != nil {
		return err
	}
	if err := e.rep.setPercentile("run_p90_ms", "ms", runMs, 0.9); err != nil {
		return err
	}
	e.rep.set("peak_rss_mb", "MB", peakMB, 1)
	return nil
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
