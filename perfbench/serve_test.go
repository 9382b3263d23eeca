package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestOpenLoopKeepsScheduleUnderSlowSender(t *testing.T) {
	const interval = 10 * time.Millisecond
	start := time.Now()
	var dues, sents []time.Time
	openLoop(context.Background(), start, start.Add(10*interval), interval, func(due time.Time) {
		dues = append(dues, due)
		sents = append(sents, time.Now())
		if len(dues) == 1 {
			time.Sleep(35 * time.Millisecond) // overruns the next three slots
		}
	})
	if len(dues) != 10 {
		t.Fatalf("%d sends, want 10", len(dues))
	}
	for k, due := range dues {
		if want := start.Add(time.Duration(k) * interval); !due.Equal(want) {
			t.Errorf("send %d due at %v, want %v: the schedule must not slip", k, due.Sub(start), want.Sub(start))
		}
		if sents[k].Before(due) {
			t.Errorf("send %d made %v before it was due", k, due.Sub(sents[k]))
		}
	}
	// The slow first send makes the second 25ms late; a late send goes out at
	// once, so the lateness shrinks by one interval per send until caught up.
	if late := sents[1].Sub(dues[1]); late < 20*time.Millisecond {
		t.Errorf("send 1 late by %v, want at least 20ms", late)
	}
	if late := sents[2].Sub(dues[2]); late < 10*time.Millisecond {
		t.Errorf("send 2 late by %v, want at least 10ms", late)
	}
}

// fakeServe answers /v1/run and /v1/batch with the given handlers.
func fakeServe(t *testing.T, run, batch http.HandlerFunc) string {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", run)
	mux.HandleFunc("/v1/batch", batch)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func fakeInputs() *serveInputs {
	return &serveInputs{
		runs:      []runCall{{Benchmarks: []string{"mcf", "galgel"}, Policy: "icount"}},
		batches:   []batchCall{{Workloads: [][]string{{"mcf", "galgel"}}, Policies: []string{"icount", "flush"}}},
		wantRun:   [][]byte{[]byte(`{"policy":"icount"}` + "\n")},
		wantBatch: [][][]byte{{[]byte(`{"index":0}` + "\n"), []byte(`{"index":1}` + "\n")}},
	}
}

func TestServeCountsEveryBadResponseAsFailed(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(code)
			io.WriteString(w, `{"error":{"code":"x","message":"refused"}}`)
		}
	}
	altered := func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"policy":"flush"}`+"\n")
	}
	errorLine := func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"index":0}`+"\n")
		io.WriteString(w, `{"index":1,"error":"boom"}`+"\n")
	}
	good := func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"policy":"icount"}`+"\n")
	}
	for _, tc := range []struct {
		name              string
		run, batch        http.HandlerFunc
		runFails          bool
		badLinesPerBatch  int
		goodLinesPerBatch int
	}{
		{"400 and 429", status(http.StatusBadRequest), status(http.StatusTooManyRequests), true, 2, 0},
		{"altered result and error line", altered, errorLine, true, 1, 1},
		{"all correct", good, errorLine, false, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{seed: 1, rep: newReport(), log: io.Discard}
			r := driveServe(context.Background(), e, fakeInputs(), fakeServe(t, tc.run, tc.batch), 0, 350*time.Millisecond)
			runs := 4 // due at 0, 100, 200 and 300ms
			batches := (e.rep.attempted - runs) / 2
			if batches < 1 || e.rep.attempted != runs+2*batches {
				t.Fatalf("attempted %d: want %d runs plus two lines per batch", e.rep.attempted, runs)
			}
			wantFailed := batches * tc.badLinesPerBatch
			wantLatencies := runs
			if tc.runFails {
				wantFailed += runs
				wantLatencies = 0
			}
			if e.rep.failed != wantFailed {
				t.Errorf("failed %d of %d, want %d", e.rep.failed, e.rep.attempted, wantFailed)
			}
			if len(r.latency) != wantLatencies {
				t.Errorf("%d latencies recorded, want %d: a failed run has no latency", len(r.latency), wantLatencies)
			}
			if r.delivered > batches*tc.goodLinesPerBatch {
				t.Errorf("%d lines delivered, more than the %d correct ones", r.delivered, batches*tc.goodLinesPerBatch)
			}
		})
	}
}
