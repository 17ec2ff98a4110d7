package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
)

// adminDaemon is a fake projfreqd with the observe endpoint plus the
// hand-off admin endpoint the router's membership transaction drives.
type adminDaemon struct {
	flakyIngest
	amu         sync.Mutex
	handoffs    []string // sources this daemon was told to absorb
	failHandoff bool
}

func (d *adminDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/observe", d.flakyIngest.handler())
	mux.HandleFunc("POST /v1/admin/handoff", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source string `json:"source"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d.amu.Lock()
		fail := d.failHandoff
		if !fail {
			d.handoffs = append(d.handoffs, req.Source)
		}
		d.amu.Unlock()
		if fail {
			http.Error(w, "handoff refused", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"source": req.Source, "rows": 42})
	})
	return mux
}

func (d *adminDaemon) handoffLog() []string {
	d.amu.Lock()
	defer d.amu.Unlock()
	return append([]string(nil), d.handoffs...)
}

// adminAgg is a fake aggregator recording /v1/admin/sources updates.
type adminAgg struct {
	mu      sync.Mutex
	adds    [][]string
	removes [][]string
}

func (a *adminAgg) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admin/sources", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Add    []string `json:"add"`
			Remove []string `json:"remove"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.mu.Lock()
		a.adds = append(a.adds, req.Add)
		a.removes = append(a.removes, req.Remove)
		a.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string][]string{"sources": req.Add})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{}`))
	})
	return mux
}

// postMembership swaps the router's ingest list.
func postMembership(t *testing.T, routerURL string, ingest []string) (int, router.MembershipResponse) {
	t.Helper()
	blob, _ := json.Marshal(router.MembershipRequest{Ingest: ingest})
	resp, err := http.Post(routerURL+"/v1/admin/membership", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out router.MembershipResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding membership response %s: %v", body, err)
	}
	return resp.StatusCode, out
}

// TestMembershipChangeOrchestratesHandoff drives the full
// transaction: removing a node bumps the ring epoch, requeues its
// redelivery backlog through the new ring, hands its slice to its
// ring successor, and retargets the aggregator's pull sources; the
// removed node then receives no further rows, and re-posting the same
// membership is a no-op.
func TestMembershipChangeOrchestratesHandoff(t *testing.T) {
	daemons := []*adminDaemon{{}, {}, {}}
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		ts := httptest.NewServer(d.handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	agg := &adminAgg{}
	ats := httptest.NewServer(agg.handler())
	t.Cleanup(ats.Close)

	r := newTestRouter(t, urls, []string{ats.URL}, router.Config{
		Timeout:        time.Second,
		RetryQueueRows: 1 << 16,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
	})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)

	// Healthy warm-up batch: all routed.
	status, ack1 := postObserveJSON(t, rs.URL, ringRows(t, urls, 200))
	if status != http.StatusOK || ack1.Routed != 200 {
		t.Fatalf("warm-up: status %d ack %+v", status, ack1)
	}
	removedDirect := daemons[2].rowCount()

	// Take the victim down and queue a second batch's slice.
	daemons[2].setStatus(http.StatusServiceUnavailable)
	rows2 := make([][]uint16, 100)
	for i := range rows2 {
		rows2[i] = []uint16{uint16(i), uint16(i * 7), 9, uint16(i % 5)}
	}
	status, ack2 := postObserveJSON(t, rs.URL, rows2)
	if status != http.StatusOK || ack2.Accepted != 100 || ack2.Queued == 0 {
		t.Fatalf("outage batch: status %d ack %+v", status, ack2)
	}

	// The expected successor is a pure ring computation the test can
	// replay offline.
	oldRing, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := cluster.NewRingEpoch(urls[:2], 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSuccessor := oldRing.Diff(newRing).Successors[urls[2]]

	status, mr := postMembership(t, rs.URL, urls[:2])
	if status != http.StatusOK {
		t.Fatalf("membership: status %d resp %+v", status, mr)
	}
	if mr.FromEpoch != 0 || mr.ToEpoch != 1 || len(mr.Removed) != 1 || mr.Removed[0] != urls[2] {
		t.Fatalf("membership epochs/removed: %+v", mr)
	}
	if mr.RequeuedRows != ack2.Queued || mr.RequeueShedRows != 0 {
		t.Fatalf("requeued %d rows (shed %d), queue held %d", mr.RequeuedRows, mr.RequeueShedRows, ack2.Queued)
	}
	if len(mr.Handoffs) != 1 || mr.Handoffs[0].To != wantSuccessor || mr.Handoffs[0].Rows != 42 ||
		mr.Handoffs[0].Error != "" || mr.Handoffs[0].Share <= 0 {
		t.Fatalf("handoffs: %+v, want successor %s", mr.Handoffs, wantSuccessor)
	}
	for i, u := range urls[:2] {
		log := daemons[i].handoffLog()
		if u == wantSuccessor {
			if len(log) != 1 || log[0] != urls[2] {
				t.Fatalf("successor %s absorbed %v, want [%s]", u, log, urls[2])
			}
		} else if len(log) != 0 {
			t.Fatalf("non-successor %s absorbed %v", u, log)
		}
	}
	if len(mr.SourceUpdates) != 1 || mr.SourceUpdates[0].Error != "" {
		t.Fatalf("source updates: %+v", mr.SourceUpdates)
	}
	agg.mu.Lock()
	if len(agg.removes) != 1 || len(agg.removes[0]) != 1 || agg.removes[0][0] != urls[2] {
		t.Fatalf("aggregator saw removes %v", agg.removes)
	}
	agg.mu.Unlock()

	// The requeued backlog lands on the survivors; the removed node
	// never sees another row (even after it heals).
	// Survivors hold everything except the removed node's directly
	// routed slice of the warm-up batch (that slice travels via the
	// hand-off, which the fake only records).
	daemons[2].setStatus(0)
	waitUntil(t, 5*time.Second, "requeued backlog delivered", func() bool {
		return daemons[0].rowCount()+daemons[1].rowCount() == 300-removedDirect
	})
	status, ack3 := postObserveJSON(t, rs.URL, ringRows(t, urls, 50))
	if status != http.StatusOK || ack3.Routed != 50 {
		t.Fatalf("post-swap batch: status %d ack %+v", status, ack3)
	}
	if got := daemons[2].rowCount(); got != removedDirect {
		t.Fatalf("removed node's rows moved: %d, want %d frozen", got, removedDirect)
	}

	// Same membership again: explicit no-op, epoch unchanged, no
	// duplicate hand-off.
	status, mr2 := postMembership(t, rs.URL, urls[:2])
	if status != http.StatusOK || !mr2.Unchanged || mr2.ToEpoch != 1 || len(mr2.Handoffs) != 0 {
		t.Fatalf("idempotent re-post: status %d resp %+v", status, mr2)
	}
	if st := routerStats(t, rs.URL); st.Epoch != 1 || len(st.Ingest) != 2 {
		t.Fatalf("router stats after swap: epoch %d ingest %v", st.Epoch, st.Ingest)
	}
}

// TestMembershipReportsHandoffFailure: the ring still swaps (writes
// must stop reaching the removed node), but a failed hand-off is
// reported per pair with an overall 502 so the orchestrator knows to
// re-issue it against the successor directly.
func TestMembershipReportsHandoffFailure(t *testing.T) {
	daemons := []*adminDaemon{{failHandoff: true}, {failHandoff: true}}
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		ts := httptest.NewServer(d.handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	agg := &adminAgg{}
	ats := httptest.NewServer(agg.handler())
	t.Cleanup(ats.Close)
	r := newTestRouter(t, urls, []string{ats.URL}, router.Config{Timeout: time.Second})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)

	status, mr := postMembership(t, rs.URL, urls[:1])
	if status != http.StatusBadGateway {
		t.Fatalf("failed handoff answered %d, want 502: %+v", status, mr)
	}
	if len(mr.Handoffs) != 1 || mr.Handoffs[0].Error == "" {
		t.Fatalf("handoffs: %+v", mr.Handoffs)
	}
	// The swap itself committed: epoch advanced, membership shrank.
	if st := routerStats(t, rs.URL); st.Epoch != 1 || len(st.Ingest) != 1 {
		t.Fatalf("ring did not swap: epoch %d ingest %v", st.Epoch, st.Ingest)
	}
}
