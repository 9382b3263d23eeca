package core_test

import (
	"strings"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/trace"
)

func benchModels(names []string) []trace.Model {
	models := make([]trace.Model, len(names))
	for i, name := range names {
		models[i] = bench.MustGet(name).Model
	}
	return models
}

// TestWakeupInvariantsEveryStep runs every policy kind on 2- and 4-thread
// MLP-intensive mixes, where long-latency loads fill the issue queues with
// waiting uops and the flush policies squash them, and checks the wakeup
// invariants after every step: on a new core, and on a core recycled from
// another shape (4 threads, ROB 512) that stopped mid-run.
func TestWakeupInvariantsEveryStep(t *testing.T) {
	donor := []string{"applu", "galgel", "swim", "mesa"}
	for _, mix := range [][]string{{"mcf", "galgel"}, {"applu", "galgel", "swim", "mesa"}} {
		models := benchModels(mix)
		for _, kind := range policy.Kinds() {
			t.Run(strings.Join(mix, "-")+"/"+kind.String(), func(t *testing.T) {
				c := core.New(core.DefaultConfig(len(mix)), models, policy.New(kind), nil)
				if err := c.RunChecked(2_000); err != nil {
					t.Fatal(err)
				}
			})
			t.Run(strings.Join(mix, "-")+"/"+kind.String()+"/recycled", func(t *testing.T) {
				c := core.New(core.DefaultConfig(len(donor)).ScaleWindow(512), benchModels(donor), policy.New(policy.MLPFlush), nil)
				c.Run(1_000)
				c.Reset(core.DefaultConfig(len(mix)), models, policy.New(kind), nil)
				if err := c.RunChecked(2_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
