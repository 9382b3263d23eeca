package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtmlp/internal/campaign"
)

func TestStoreDigestDetectsAnyByte(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("results.ndjson", "a\n")
	write("refs.ndjson", "b\n")
	r1, f1, err := storeDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, f2, _ := storeDigest(dir)
	if r1 != r2 || f1 != f2 {
		t.Fatal("digest of unchanged files changed")
	}
	write("results.ndjson", "A\n")
	if r3, f3, _ := storeDigest(dir); r3 == r1 || f3 != f1 {
		t.Error("changing results.ndjson must change its digest and only its digest")
	}
}

func TestCampaignDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	spec := campaign.Spec{Instructions: 1000, Policies: []string{"icount", "mlpflush"},
		Workloads: campaign.WorkloadSpec{Mixes: [][]string{{"mcf", "galgel"}}}}
	ctx := context.Background()
	r1, f1, err := localDigests(ctx, filepath.Join(t.TempDir(), "a"), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, f2, err := localDigests(ctx, filepath.Join(t.TempDir(), "b"), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || f1 != f2 {
		t.Errorf("two runs of one spec gave different stores: %s/%s vs %s/%s", r1, f1, r2, f2)
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	a, ap := sweepSpecs(7)
	b, bp := sweepSpecs(7)
	ra, _, err := a.Requests()
	if err != nil {
		t.Fatal(err)
	}
	rb, _, _ := b.Requests()
	pa, _, _ := ap.Requests()
	pb, _, _ := bp.Requests()
	if len(ra) != len(rb) || len(pa) != len(pb) || ra[len(ra)-1].Tag != rb[len(rb)-1].Tag {
		t.Error("one seed gave two different sweep specs")
	}
	c, _ := sweepSpecs(8)
	if rc, _, _ := c.Requests(); rc[0].Tag == ra[0].Tag && rc[len(rc)-1].Tag == ra[len(ra)-1].Tag {
		t.Error("two seeds gave the same sweep spec")
	}
	runs, batches := servePool(7, paperPolicies())
	inBatches := map[string]int{}
	for _, b := range batches {
		for _, req := range b.requests() {
			inBatches[req.Tag]++
		}
	}
	for tag, n := range inBatches {
		if n != 1 {
			t.Errorf("batch pool holds %s %d times, want once", tag, n)
		}
	}
	if len(inBatches) != len(runs) {
		t.Errorf("batch pool holds %d cells, the /v1/run pool %d: both must hold every Table II cell", len(inBatches), len(runs))
	}
	traced := 0
	for _, r := range runs {
		if r.TraceInterval > 0 {
			traced++
		}
	}
	if want := int(tracedShare * float64(len(runs))); traced != want || len(runs) != 36*len(paperPolicies()) {
		t.Errorf("%d of %d pool runs traced, want %d of %d", traced, len(runs), want, 36*len(paperPolicies()))
	}
	other, otherBatches := servePool(8, paperPolicies())
	if reflect.DeepEqual(other, runs) {
		t.Error("two seeds gave the /v1/run pool the same order")
	}
	if reflect.DeepEqual(otherBatches, batches) {
		t.Error("two seeds gave the /v1/batch pool the same grouping")
	}
}
