// Correlation-ID propagation across the fleet wire: the request ID a
// coordinator mints per lease delivery must appear in its own structured
// logs, in the worker's lease logs, and in the worker's GET /v1/work
// listing — and a retried chunk must get a fresh request ID under the same
// campaign ID.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtmlp"
	"smtmlp/internal/campaign"
	"smtmlp/internal/fleet"
	"smtmlp/internal/obs"
	"smtmlp/internal/server"
	"smtmlp/internal/store"
)

// syncBuf is a concurrency-safe log sink: slog handlers serialize their own
// writes, but the test reads while worker-side timers may still fire.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLine is the decoded shape of one JSON log line.
type logLine struct {
	Msg        string `json:"msg"`
	RequestID  string `json:"request_id"`
	CampaignID string `json:"campaign_id"`
	LeaseID    string `json:"lease_id"`
}

// linesWithMsg decodes a JSON log stream and returns the lines with the
// given msg.
func linesWithMsg(t *testing.T, raw, msg string) []logLine {
	t.Helper()
	var out []logLine
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var ll logLine
		if err := json.Unmarshal([]byte(line), &ll); err != nil {
			t.Fatalf("log line is not JSON: %s (%v)", line, err)
		}
		if ll.Msg == msg {
			out = append(out, ll)
		}
	}
	return out
}

func TestFleetRequestIDPropagation(t *testing.T) {
	var coordLog, workerLog syncBuf
	coordLogger, err := obs.NewLogger(&coordLog, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	workerLogger, err := obs.NewLogger(&workerLog, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}

	worker := server.New(smtmlp.NewEngine(), server.WithLogger(workerLogger))

	// The wrapper snapshots GET /v1/work right after each accepted lease
	// delivery, while the lease is still listed, and fakes the first
	// collection poll as "expired" so the coordinator loses that lease and
	// re-dispatches the chunk.
	var wrapMu sync.Mutex
	var listings []string
	faked := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" && r.URL.Path == "/v1/work/complete" {
			wrapMu.Lock()
			fake := !faked
			faked = true
			wrapMu.Unlock()
			if fake {
				// The coordinator keys only on the status line; the gzipped
				// request body can be ignored.
				w.Header().Set("Content-Type", "application/x-ndjson")
				json.NewEncoder(w).Encode(server.CompleteLine{
					Lease: &server.LeaseStatus{Status: "expired"},
				})
				return
			}
		}
		worker.ServeHTTP(w, r)
		if r.Method == "POST" && r.URL.Path == "/v1/work/lease" {
			rec := httptest.NewRecorder()
			worker.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/work", nil))
			wrapMu.Lock()
			listings = append(listings, rec.Body.String())
			wrapMu.Unlock()
		}
	}))
	defer ts.Close()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	spec := campaign.Spec{
		Name:         "obs-e2e",
		Instructions: 5_000,
		Warmup:       1_000,
		Policies:     []string{"icount"},
		Workloads: campaign.WorkloadSpec{Mixes: [][]string{
			{"mcf", "galgel"}, {"swim", "twolf"},
		}},
	}
	sum, err := fleet.Run(t.Context(), st, spec, fleet.Options{
		Workers:        []string{ts.URL},
		LeaseSize:      2,
		PipelineDepth:  1,
		CompleteWait:   100 * time.Millisecond,
		StragglerAfter: -1,
		Logger:         coordLogger,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if sum.Executed != 2 || sum.LeasesRetried == 0 {
		t.Fatalf("summary %+v, want 2 executed with at least one retried lease", sum)
	}

	dispatched := linesWithMsg(t, coordLog.String(), "lease dispatched")
	if len(dispatched) < 2 {
		t.Fatalf("%d 'lease dispatched' coordinator lines, want >= 2 (original + retry)", len(dispatched))
	}

	// One campaign ID across every delivery; a fresh request ID per delivery.
	ids := make(map[string]bool)
	for _, d := range dispatched {
		if d.CampaignID != dispatched[0].CampaignID || d.CampaignID == "" {
			t.Fatalf("campaign IDs differ across deliveries: %q vs %q", d.CampaignID, dispatched[0].CampaignID)
		}
		if d.RequestID == "" || ids[d.RequestID] {
			t.Fatalf("request ID %q missing or reused across deliveries", d.RequestID)
		}
		ids[d.RequestID] = true
	}

	// The retry lost a lease: the requeue is logged under the campaign ID.
	if lost := linesWithMsg(t, coordLog.String(), "lease lost; chunk requeued"); len(lost) == 0 {
		t.Fatal("no 'lease lost; chunk requeued' line after the faked expiry")
	}

	// Worker side: every delivery's request ID appears on its lease-accepted
	// log line together with the coordinator's campaign ID.
	accepted := linesWithMsg(t, workerLog.String(), "lease accepted")
	if len(accepted) != len(dispatched) {
		t.Fatalf("worker logged %d accepted leases, coordinator dispatched %d", len(accepted), len(dispatched))
	}
	for _, a := range accepted {
		if !ids[a.RequestID] {
			t.Fatalf("worker 'lease accepted' request_id %q never dispatched by the coordinator", a.RequestID)
		}
		if a.CampaignID != dispatched[0].CampaignID {
			t.Fatalf("worker campaign_id %q, coordinator %q", a.CampaignID, dispatched[0].CampaignID)
		}
		if a.LeaseID == "" {
			t.Fatal("worker 'lease accepted' line has no lease_id")
		}
	}

	// The GET /v1/work listing echoes each delivery's request ID while the
	// lease is held.
	wrapMu.Lock()
	allListings := strings.Join(listings, "\n")
	wrapMu.Unlock()
	for id := range ids {
		if !strings.Contains(allListings, `"request_id":"`+id+`"`) {
			t.Fatalf("request ID %s missing from the GET /v1/work listings:\n%s", id, allListings)
		}
	}
}
