package core_test

import (
	"strings"
	"testing"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/policy"
	"smtmlp/internal/trace"
)

// TestWakeupInvariantsEveryStep runs every policy kind on 2- and 4-thread
// MLP-intensive mixes, where long-latency loads fill the issue queues with
// waiting uops and the flush policies squash them, and checks the wakeup
// invariants after every step.
func TestWakeupInvariantsEveryStep(t *testing.T) {
	for _, mix := range [][]string{{"mcf", "galgel"}, {"applu", "galgel", "swim", "mesa"}} {
		models := make([]trace.Model, len(mix))
		for i, name := range mix {
			models[i] = bench.MustGet(name).Model
		}
		for _, kind := range policy.Kinds() {
			t.Run(strings.Join(mix, "-")+"/"+kind.String(), func(t *testing.T) {
				c := core.New(core.DefaultConfig(len(mix)), models, policy.New(kind), nil)
				if err := c.RunChecked(2_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
