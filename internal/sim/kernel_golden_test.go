package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"

	"smtmlp/internal/core"
	"smtmlp/internal/policy"
)

// kernelGoldenPath pins the cycle kernel's complete outputs on a fixed grid:
// one sha256 of the full core.Result JSON per cell. The file was produced
// once, before the kernel's issue-stage wakeup was rewritten, and is never
// regenerated: a kernel change that is meant to change only speed must
// leave every digest as it is.
const kernelGoldenPath = "testdata/kernel_golden.json"

// Budget of every golden cell: small enough that the whole grid runs in a
// few seconds, long enough that flushes, squashes and stalls all happen.
const kernelGoldenInstructions, kernelGoldenWarmup = 2_000, 500

// goldenCell is one kernel run of the grid.
type goldenCell struct {
	name       string
	workload   []string
	kind       policy.Kind
	limiter    core.Limiter
	cfg        core.Config
	traceEvery int64
}

// kernelGoldenCells builds the grid: every policy kind (the flush-at-stall
// kinds squash from the dispatch stage) on ILP, MLP and mixed mixes from
// Tables II and III at 2 and 4 threads; ICOUNT under both limiters; scaled
// windows, the larger one with 800-cycle memory; and interval tracing on
// one cell in seven.
func kernelGoldenCells() []goldenCell {
	mixes := [][]string{
		{"vortex", "parser"}, // ILP
		{"crafty", "twolf"},
		{"mcf", "galgel"}, // MLP
		{"swim", "galgel"},
		{"apsi", "mesa"},
		{"lucas", "fma3d"},
		{"swim", "twolf"}, // mixed
		{"vpr", "mcf"},
		{"art", "mgrid"},
		{"vortex", "parser", "crafty", "twolf"}, // 4 threads, 0..4 MLP
		{"mgrid", "vortex", "swim", "twolf"},
		{"mcf", "galgel", "vortex", "gcc"},
		{"applu", "swim", "mcf", "equake"},
		{"applu", "galgel", "swim", "mesa"},
	}
	var cells []goldenCell
	add := func(name string, mix []string, kind policy.Kind, lim core.Limiter, cfg core.Config) {
		cells = append(cells, goldenCell{name: strings.Join(mix, "-") + "/" + name, workload: mix, kind: kind, limiter: lim, cfg: cfg})
	}
	for _, mix := range mixes {
		cfg := core.DefaultConfig(len(mix))
		for _, k := range policy.Kinds() {
			add(k.String(), mix, k, nil, cfg)
		}
		add("icount+static", mix, policy.ICount, policy.StaticPartition{}, cfg)
		add("icount+dcra", mix, policy.ICount, policy.DCRA{}, cfg)
	}
	windowMixes := [][]string{mixes[0], mixes[2], mixes[6], mixes[13]}
	windowKinds := []policy.Kind{policy.ICount, policy.Flush, policy.MLPFlush, policy.MLPFlushAtStall}
	for _, mix := range windowMixes {
		for _, k := range windowKinds {
			small := core.DefaultConfig(len(mix)).ScaleWindow(128)
			add(k.String()+"/rob128", mix, k, nil, small)
			large := core.DefaultConfig(len(mix)).ScaleWindow(512)
			large.Mem.MemLatency = 800
			add(k.String()+"/rob512-mem800", mix, k, nil, large)
		}
	}
	for i := range cells {
		if i%7 == 3 {
			cells[i].traceEvery = 250
			cells[i].name += "/trace250"
		}
	}
	return cells
}

// kernelDigests runs cells in order, each through run, which supplies the
// cell's core — new or recycled — and runs the production warm-up and
// measurement path, and returns each cell's sha256 of its core.Result JSON.
func kernelDigests(t *testing.T, cells []goldenCell, run func(r *Runner, cell goldenCell) core.Result) map[string]string {
	t.Helper()
	r := NewRunner(Params{Instructions: kernelGoldenInstructions, Warmup: kernelGoldenWarmup})
	out := make(map[string]string)
	for _, cell := range cells {
		if _, dup := out[cell.name]; dup {
			t.Fatalf("duplicate golden cell name %q", cell.name)
		}
		out[cell.name] = resultDigest(t, cell.name, run(r, cell))
	}
	return out
}

// newCoreCell runs cell on a new core.
func newCoreCell(r *Runner, cell goldenCell) core.Result {
	c := core.New(cell.cfg, models(cell.workload), policy.New(cell.kind), cell.limiter)
	return r.runWarm(c, cell.traceEvery)
}

// recycledCell runs cell through the production recycling path: a core from
// the process-wide pool, reset to the cell.
func recycledCell(r *Runner, cell goldenCell) core.Result {
	return r.runRecycled(cell.cfg, models(cell.workload), policy.New(cell.kind), cell.limiter, cell.traceEvery)
}

// resultDigest returns the sha256 of res's JSON encoding.
func resultDigest(t *testing.T, name string, res core.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: encoding result: %v", name, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pinnedKernelDigests reads the pinned digest of every golden cell.
func pinnedKernelDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatalf("reading pinned kernel digests: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", kernelGoldenPath, err)
	}
	return want
}

// requirePinned fails t unless got holds exactly the pinned cells, each
// with its pinned digest.
func requirePinned(t *testing.T, want, got map[string]string) {
	t.Helper()
	var drift []string
	for name, sum := range got {
		if w, ok := want[name]; !ok {
			drift = append(drift, fmt.Sprintf("%s: not pinned", name))
		} else if w != sum {
			drift = append(drift, fmt.Sprintf("%s: result digest changed", name))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			drift = append(drift, fmt.Sprintf("%s: pinned but no longer run", name))
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Fatalf("%d of %d kernel cells drifted from %s:\n%s", len(drift), len(want), kernelGoldenPath, strings.Join(drift, "\n"))
	}
}

// TestKernelGolden requires every cell of the grid, each on a new core, to
// reproduce its pinned core.Result digest exactly: cycles, per-thread
// counters, MLP, profiles and interval traces alike.
func TestKernelGolden(t *testing.T) {
	want := pinnedKernelDigests(t)
	requirePinned(t, want, kernelDigests(t, kernelGoldenCells(), newCoreCell))
}

// TestKernelGoldenRecycled runs the whole grid through the production
// recycling path in three seeded shuffles, so one core crosses thread
// counts, window sizes, memory latencies, policies, limiters and traced and
// untraced cells, and requires the same pinned digests as new cores give.
// Any state a reset fails to clear leaks into the next cell and shows here.
func TestKernelGoldenRecycled(t *testing.T) {
	want := pinnedKernelDigests(t)
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("shuffle%d", seed), func(t *testing.T) {
			cells := kernelGoldenCells()
			rand.New(rand.NewPCG(seed, 0)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			requirePinned(t, want, kernelDigests(t, cells, recycledCell))
		})
	}
}
