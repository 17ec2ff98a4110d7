package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func (f *fakeSource) getCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets
}

func (r *recorder) setFail(err error) {
	r.mu.Lock()
	r.fail = err
	r.mu.Unlock()
}

// TestPullerRetriesStashedBlobWithoutRefetch is the satellite fix
// pinned: after a 200 whose apply failed, the next rounds re-apply
// the SAME fetched bytes — the source is not probed again, so its
// request count stays flat — and the per-source failure counters
// reset once the apply goes through.
func TestPullerRetriesStashedBlobWithoutRefetch(t *testing.T) {
	src := &fakeSource{}
	src.set([]byte("heavy-blob"))
	ts := httptest.NewServer(src.handler())
	defer ts.Close()

	rec := &recorder{fail: errors.New("absorb racing shutdown")}
	p, err := NewPuller([]string{ts.URL}, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Round 1: one probe, blob fetched, apply refused, blob stashed.
	if err := p.PullOnce(ctx); err == nil {
		t.Fatal("apply failure not surfaced")
	}
	if got := src.getCount(); got != 1 {
		t.Fatalf("%d GETs after first round, want 1", got)
	}
	st := p.Stats()[0]
	if st.Pulls != 1 || st.Errors != 1 || st.ConsecFailures != 1 || st.ApplyRetries != 0 {
		t.Fatalf("stats after first failure: %+v", st)
	}

	// Round 2: still failing — the stash is retried, the wire is idle.
	if err := p.PullOnce(ctx); err == nil {
		t.Fatal("retried apply failure not surfaced")
	}
	if got := src.getCount(); got != 1 {
		t.Fatalf("%d GETs after retry round, want 1 (no re-fetch)", got)
	}
	st = p.Stats()[0]
	if st.Pulls != 1 || st.ApplyRetries != 1 || st.ConsecFailures != 2 || st.ETag != "" {
		t.Fatalf("stats after retry: %+v", st)
	}

	// Round 3: the applier recovers; the stashed bytes land, the ETag
	// advances, and the failure streak resets — all without another GET.
	rec.setFail(nil)
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := src.getCount(); got != 1 {
		t.Fatalf("%d GETs after successful retry, want 1", got)
	}
	blobs := rec.applied[ts.URL]
	if len(blobs) != 1 || string(blobs[0]) != "heavy-blob" {
		t.Fatalf("applied blobs: %q", blobs)
	}
	st = p.Stats()[0]
	if st.ETag == "" || st.Changed != 1 || st.ApplyRetries != 2 ||
		st.ConsecFailures != 0 || st.LastError != "" {
		t.Fatalf("stats after recovery: %+v", st)
	}

	// Round 4: nothing stashed, nothing changed — back to a normal 304.
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := src.getCount(); got != 2 {
		t.Fatalf("%d GETs after idle round, want 2", got)
	}
	if st = p.Stats()[0]; st.NotModified != 1 {
		t.Fatalf("stats after idle round: %+v", st)
	}
}

// TestPullerDropsPoisonedBlobAfterCap: a blob the applier keeps
// refusing is dropped after maxApplyRetries attempts, and the next
// round probes the source again — a poisoned snapshot must not pin the
// source to stale bytes forever.
func TestPullerDropsPoisonedBlobAfterCap(t *testing.T) {
	src := &fakeSource{}
	src.set([]byte("poison"))
	ts := httptest.NewServer(src.handler())
	defer ts.Close()

	rec := &recorder{fail: errors.New("shape mismatch")}
	p, err := NewPuller([]string{ts.URL}, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// maxApplyRetries rounds exhaust the stash: one fetch, then
	// in-place retries.
	for i := 0; i < maxApplyRetries; i++ {
		if err := p.PullOnce(ctx); err == nil {
			t.Fatalf("round %d: apply failure not surfaced", i)
		}
	}
	if got := src.getCount(); got != 1 {
		t.Fatalf("%d GETs while exhausting the stash, want 1", got)
	}

	// The stash is gone: the next round goes back to the wire, and a
	// recovered applier gets the (re-fetched) bytes.
	rec.setFail(nil)
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := src.getCount(); got != 2 {
		t.Fatalf("%d GETs after stash dropped, want 2 (re-probe)", got)
	}
	if blobs := rec.applied[ts.URL]; len(blobs) != 1 || string(blobs[0]) != "poison" {
		t.Fatalf("applied blobs: %q", blobs)
	}
}

// TestPullerAddRemoveSources covers the dynamic membership the
// router's source retargeting drives: added sources pull cold on the
// next round, removed ones stop being probed and lose their state.
func TestPullerAddRemoveSources(t *testing.T) {
	a, b := &fakeSource{}, &fakeSource{}
	a.set([]byte("from-a"))
	b.set([]byte("from-b"))
	tsA := httptest.NewServer(a.handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.handler())
	defer tsB.Close()

	rec := &recorder{}
	p, err := NewPuller([]string{tsA.URL}, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tsB.URL + "/"); err != nil { // trailing slash normalizes away
		t.Fatal(err)
	}
	if err := p.Add(tsB.URL); err != nil { // duplicate add is a no-op
		t.Fatal(err)
	}
	if got := p.Sources(); len(got) != 2 {
		t.Fatalf("sources after add: %v", got)
	}
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if blobs := rec.applied[tsB.URL]; len(blobs) != 1 || string(blobs[0]) != "from-b" {
		t.Fatalf("added source not pulled cold: %q", blobs)
	}

	if !p.Remove(tsA.URL) {
		t.Fatal("Remove of present source reported absent")
	}
	if p.Remove(tsA.URL) {
		t.Fatal("double Remove reported present")
	}
	gets := a.getCount()
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.getCount() != gets {
		t.Fatal("removed source still probed")
	}
	stats := p.Stats()
	if len(stats) != 1 || stats[0].URL != tsB.URL {
		t.Fatalf("stats after remove: %+v", stats)
	}
	// Re-adding starts cold: no ETag survives removal.
	if err := p.Add(tsA.URL); err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Stats() {
		if st.URL == tsA.URL && (st.ETag != "" || st.Pulls != 0) {
			t.Fatalf("re-added source kept state: %+v", st)
		}
	}
}

// TestPullerRemoveWinsOverFetchedBlob: a blob fetched from a source
// that is removed before the blob is applied must never reach the
// Applier — otherwise the caller's drop of the source's state (an
// aggregator's RemoveSource during a membership change) is undone and
// the departed slice counts twice.
func TestPullerRemoveWinsOverFetchedBlob(t *testing.T) {
	src := &fakeSource{}
	src.set([]byte("state-1"))
	rec := &recorder{}
	var p *Puller
	// The source is removed while it serves the very GET whose blob the
	// round then goes on to apply.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.Remove("http://" + r.Host)
		src.handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	var err error
	if p, err = NewPuller([]string{ts.URL}, rec, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.applied) != 0 {
		t.Fatalf("a removed source's blob was applied: %q", rec.applied)
	}
}
