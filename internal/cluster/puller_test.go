package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeSource is a minimal /v1/summary endpoint with ETag + 304
// semantics, mirroring the daemon's conditional-GET contract.
type fakeSource struct {
	mu   sync.Mutex
	seq  int
	blob []byte
	gets int
}

func (f *fakeSource) set(blob []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.blob = blob
}

func (f *fakeSource) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.gets++
		tag := fmt.Sprintf(`"fake-%d"`, f.seq)
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write(f.blob)
	})
}

// recorder collects applied blobs per source.
type recorder struct {
	mu      sync.Mutex
	applied map[string][][]byte
	fail    error
}

func (r *recorder) ApplySource(source string, blob []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	if r.applied == nil {
		r.applied = make(map[string][][]byte)
	}
	r.applied[source] = append(r.applied[source], append([]byte(nil), blob...))
	return nil
}

// TestPullerSkipsUnchangedSources is the anti-entropy core: a source
// whose state did not change between rounds answers 304 and ships no
// blob; a changed source ships exactly once per change.
func TestPullerSkipsUnchangedSources(t *testing.T) {
	src := &fakeSource{}
	src.set([]byte("state-1"))
	ts := httptest.NewServer(src.handler())
	defer ts.Close()

	rec := &recorder{}
	p, err := NewPuller([]string{ts.URL}, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Round 1: cold pull ships the blob.
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// Rounds 2-4: nothing changed, nothing ships.
	for i := 0; i < 3; i++ {
		if err := p.PullOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(rec.applied[ts.URL]); n != 1 {
		t.Fatalf("%d blobs applied across 4 idle rounds, want 1", n)
	}
	st := p.Stats()[0]
	if st.Pulls != 4 || st.Changed != 1 || st.NotModified != 3 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The source changes; the next round ships the new blob.
	src.set([]byte("state-2"))
	if err := p.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	got := rec.applied[ts.URL]
	if len(got) != 2 || string(got[1]) != "state-2" {
		t.Fatalf("applied blobs: %q", got)
	}
	st = p.Stats()[0]
	if st.Changed != 2 || st.NotModified != 3 {
		t.Fatalf("stats after change: %+v", st)
	}
}

// TestPullerDoesNotAdvanceETagOnApplyFailure: a refused blob must be
// re-pulled next round, not recorded as converged.
func TestPullerDoesNotAdvanceETagOnApplyFailure(t *testing.T) {
	src := &fakeSource{}
	src.set([]byte("blob"))
	ts := httptest.NewServer(src.handler())
	defer ts.Close()

	rec := &recorder{fail: errors.New("summary shape mismatch")}
	p, err := NewPuller([]string{ts.URL}, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PullOnce(context.Background()); err == nil {
		t.Fatal("apply failure not surfaced")
	}
	st := p.Stats()[0]
	if st.ETag != "" || st.Errors != 1 || st.Changed != 0 {
		t.Fatalf("stats after refused blob: %+v", st)
	}

	// The applier recovers; the same state ships on the next round
	// because the ETag never advanced.
	rec.mu.Lock()
	rec.fail = nil
	rec.mu.Unlock()
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.applied[ts.URL]); n != 1 {
		t.Fatalf("%d blobs applied after recovery, want 1", n)
	}
	st = p.Stats()[0]
	if st.ETag == "" || st.LastError != "" {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

// TestPullerSurvivesDeadSource: one unreachable source records errors
// without blocking pulls from healthy ones — node restarts must not
// stall cluster convergence.
func TestPullerSurvivesDeadSource(t *testing.T) {
	alive := &fakeSource{}
	alive.set([]byte("alive"))
	ts := httptest.NewServer(alive.handler())
	defer ts.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	rec := &recorder{}
	p, err := NewPuller([]string{ts.URL, deadURL}, rec, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PullOnce(context.Background()); err == nil {
		t.Fatal("dead source not surfaced")
	}
	if n := len(rec.applied[ts.URL]); n != 1 {
		t.Fatalf("healthy source not pulled: %d blobs", n)
	}
	for _, st := range p.Stats() {
		if st.URL == deadURL && (st.Errors != 1 || st.LastError == "") {
			t.Fatalf("dead source stats: %+v", st)
		}
	}
}

// TestNewPullerRefusals covers constructor validation.
func TestNewPullerRefusals(t *testing.T) {
	if _, err := NewPuller(nil, ApplierFunc(func(string, []byte) error { return nil }), time.Second); err == nil {
		t.Fatal("empty source list accepted")
	}
	if _, err := NewPuller([]string{"http://x"}, nil, time.Second); err == nil {
		t.Fatal("nil applier accepted")
	}
}
