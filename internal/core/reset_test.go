package core

import (
	"reflect"
	"slices"
	"testing"

	"smtmlp/internal/trace"
)

// TestResetArenaSlotOrder requires a reset arena to hand out slots in
// exactly the order a new one does while growing on demand, whatever order
// its slots were released in before the reset.
func TestResetArenaSlotOrder(t *testing.T) {
	const capacity, n = 300, 700 // n outgrows the initial capacity
	order := func(a *uopArena) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = a.alloc().arenaIdx
		}
		return out
	}
	var fresh uopArena
	fresh.reset(capacity)
	want := order(&fresh)

	var used uopArena
	used.reset(capacity)
	var live []*Uop
	for range 1_200 {
		live = append(live, used.alloc())
	}
	for i := range live { // release in a scrambled order
		used.release(live[(i*7)%len(live)])
	}
	used.reset(capacity)
	if got := order(&used); !slices.Equal(got, want) {
		t.Fatalf("reset arena hands out slots %v..., a new one %v...", got[:8], want[:8])
	}
}

// TestResetMatchesNewAcrossShapes walks one core through shapes that grow
// and shrink every structure — 1 to 8 threads, ROB 16 to 4096, LLSR and
// predictor sizes, cache geometry, prefetching off and on — and requires
// each run after a Reset to equal the same run on a new core.
func TestResetMatchesNewAcrossShapes(t *testing.T) {
	shape := func(threads, rob int, edit func(*Config)) Config {
		cfg := DefaultConfig(threads).ScaleWindow(rob)
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	shapes := []Config{
		shape(2, 256, nil),
		shape(8, 4096, nil),
		shape(1, 16, func(c *Config) { c.LLSRSize = 8; c.PredictorEntries = 64 }),
		shape(3, 100, func(c *Config) { c.Mem.EnablePrefetch = false; c.Mem.L2.SizeBytes = 1 << 20 }),
		shape(4, 512, func(c *Config) { c.Bpred.GshareEntries = 8192; c.Mem.TLBEntries = 64 }),
		shape(2, 256, nil),
	}
	models := func(n int) []trace.Model {
		out := make([]trace.Model, n)
		for i := range out {
			if i%2 == 0 {
				out[i] = missModel()
			} else {
				out[i] = pureALUModel()
			}
		}
		return out
	}
	run := func(c *Core) Result {
		c.EnableIntervalTrace(64)
		c.Run(1_000)
		c.ResetStats()
		return c.Run(3_000)
	}
	recycled := New(shapes[0], models(shapes[0].Threads), &flushingPolicy{}, nil)
	for i, cfg := range shapes {
		want := run(New(cfg, models(cfg.Threads), &flushingPolicy{}, nil))
		recycled.Reset(cfg, models(cfg.Threads), &flushingPolicy{}, nil)
		if got := run(recycled); !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %d (%d threads, ROB %d): the reset core's result differs from a new core's", i, cfg.Threads, cfg.ROBSize)
		}
	}
}
