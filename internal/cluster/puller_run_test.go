package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdingSource is a /v1/summary endpoint that long-polls like the
// daemon: a conditional GET with ?wait= whose tag is current is held
// until set moves the state, the wait runs out, or the client leaves,
// and every answer reports its hold in Server-Timing.
type holdingSource struct {
	mu      sync.Mutex
	seq     int
	changed chan struct{}
	// onChange, when set, runs before a held GET that was woken by a
	// change writes its blob.
	onChange func(r *http.Request)
	// held counts GETs being held now; released counts holds that ended
	// because the client left.
	held, released atomic.Int32
}

func newHoldingSource() *holdingSource {
	return &holdingSource{seq: 1, changed: make(chan struct{})}
}

func (h *holdingSource) set() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	close(h.changed)
	h.changed = make(chan struct{})
}

func (h *holdingSource) tag() (string, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf(`"hold-%d"`, h.seq), h.changed
}

func (h *holdingSource) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wait, _ := time.ParseDuration(r.URL.Query().Get("wait"))
		tag, changed := h.tag()
		inm := r.Header.Get("If-None-Match")
		var hold time.Duration
		if wait > 0 && inm == tag {
			h.held.Add(1)
			start := time.Now()
			select {
			case <-changed:
				if h.onChange != nil {
					h.onChange(r)
				}
			case <-time.After(wait):
			case <-r.Context().Done():
				h.released.Add(1)
			}
			h.held.Add(-1)
			hold = time.Since(start)
			tag, _ = h.tag()
		}
		w.Header().Set("Server-Timing", fmt.Sprintf("hold;dur=%.3f", float64(hold)/float64(time.Millisecond)))
		w.Header().Set("ETag", tag)
		if inm == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write([]byte("state-" + tag))
	})
}

// count reports how many blobs rec holds for src.
func (r *recorder) count(src string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.applied[src])
}

// runPuller starts p.Run in the background and returns a stop func
// that ends it and waits for it to return (also run at cleanup).
func runPuller(t *testing.T, p *Puller, interval time.Duration) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx, interval) }()
	var once sync.Once
	stop := func() { once.Do(func() { cancel(); <-done }) }
	t.Cleanup(stop)
	return stop
}

// waitFor polls cond every millisecond until it holds, failing after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPullerRunLongPolls: under Run a changed source ships at once —
// the held pull answers as soon as the state moves — and an idle one
// costs one held 304 per interval, not a stream of probes.
func TestPullerRunLongPolls(t *testing.T) {
	const interval = 300 * time.Millisecond
	src := newHoldingSource()
	ts := httptest.NewServer(src.handler())
	t.Cleanup(ts.Close)
	rec := &recorder{}
	p, err := NewPuller([]string{ts.URL}, rec, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	runPuller(t, p, interval)
	waitFor(t, time.Second, "the cold pull", func() bool { return rec.count(ts.URL) == 1 })
	waitFor(t, time.Second, "a held pull", func() bool { return src.held.Load() == 1 })
	src.set()
	start := time.Now()
	waitFor(t, time.Second, "the changed blob", func() bool { return rec.count(ts.URL) == 2 })
	if took := time.Since(start); took > interval/2 {
		t.Fatalf("a change shipped %v after it happened; the hold is %v", took, interval)
	}
	time.Sleep(2 * interval)
	st := p.Stats()[0]
	if st.NotModified < 1 || st.NotModified > 3 || st.Errors != 0 {
		t.Fatalf("idle for two holds: %+v", st)
	}
}

// TestPullerRemoveAbortsHeldPull extends the Remove-wins family to the
// long-poll loop: Remove during a held pull returns at once and aborts
// the GET, and a blob the source serves while it is being removed —
// the hold woken by a change — never reaches the Applier.
func TestPullerRemoveAbortsHeldPull(t *testing.T) {
	const interval = 2 * time.Second
	t.Run("held", func(t *testing.T) {
		src := newHoldingSource()
		ts := httptest.NewServer(src.handler())
		t.Cleanup(ts.Close)
		rec := &recorder{}
		p, err := NewPuller([]string{ts.URL}, rec, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		runPuller(t, p, interval)
		waitFor(t, time.Second, "a held pull", func() bool { return src.held.Load() == 1 })
		start := time.Now()
		if !p.Remove(ts.URL) {
			t.Fatal("source not present")
		}
		if took := time.Since(start); took >= interval/2 {
			t.Fatalf("Remove took %v during a %v hold", took, interval)
		}
		waitFor(t, interval/2, "the held GET to be aborted", func() bool { return src.released.Load() == 1 })
		before := rec.count(ts.URL)
		src.set()
		time.Sleep(50 * time.Millisecond)
		if got := rec.count(ts.URL); got != before {
			t.Fatalf("%d blobs applied after Remove returned", got-before)
		}
	})
	t.Run("woken", func(t *testing.T) {
		src := newHoldingSource()
		var p *Puller
		src.onChange = func(r *http.Request) { p.Remove("http://" + r.Host) }
		ts := httptest.NewServer(src.handler())
		t.Cleanup(ts.Close)
		rec := &recorder{}
		var err error
		if p, err = NewPuller([]string{ts.URL}, rec, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		stop := runPuller(t, p, interval)
		waitFor(t, time.Second, "a held pull", func() bool { return src.held.Load() == 1 })
		src.set()
		waitFor(t, time.Second, "the source's removal", func() bool { return len(p.Sources()) == 0 })
		stop()
		if got := rec.count(ts.URL); got != 1 {
			t.Fatalf("%d blobs applied, want only the cold pull's: a removed source's blob landed", got)
		}
	})
}

// TestPullerAddDuringRun: a source added while Run is active is pulled
// at once, not on some later tick.
func TestPullerAddDuringRun(t *testing.T) {
	const interval = 5 * time.Second
	a, b := newHoldingSource(), newHoldingSource()
	tsA, tsB := httptest.NewServer(a.handler()), httptest.NewServer(b.handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	rec := &recorder{}
	p, err := NewPuller([]string{tsA.URL}, rec, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	runPuller(t, p, interval)
	waitFor(t, time.Second, "the first source's hold", func() bool { return a.held.Load() == 1 })
	start := time.Now()
	if err := p.Add(tsB.URL); err != nil {
		t.Fatal(err)
	}
	waitFor(t, interval/5, "the added source's first blob", func() bool { return rec.count(tsB.URL) == 1 })
	t.Logf("added source applied %v after Add", time.Since(start))
}

// TestPullerPacesChangedPulls: against sources that change on every
// request and take ~5ms to serve, each loop sleeps pullGap times the
// pull's cost after every blob, so over one second a source ships at
// most about 1s / (10 × 5ms) + 2 blobs — pulling stays at most a tenth
// of the loop's time however busy the source is.
func TestPullerPacesChangedPulls(t *testing.T) {
	const serve, window = 5 * time.Millisecond, time.Second
	var urls []string
	for i := 0; i < 2; i++ {
		var seq atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(serve)
			w.Header().Set("ETag", fmt.Sprintf(`"busy-%d"`, seq.Add(1)))
			_, _ = w.Write([]byte("state"))
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rec := &recorder{}
	p, err := NewPuller(urls, rec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	runPuller(t, p, 100*time.Millisecond)
	time.Sleep(window)
	limit := int64(window/(10*serve)) + 2
	for _, st := range p.Stats() {
		if st.Changed > limit || st.Changed < 2 || st.Errors != 0 {
			t.Fatalf("%s: %d changed pulls in %v (limit %d), %d errors", st.URL, st.Changed, window, limit, st.Errors)
		}
		t.Logf("%s: %d changed pulls in %v (limit %d)", st.URL, st.Changed, window, limit)
	}
}
