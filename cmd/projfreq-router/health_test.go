package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/router"
)

// flakyAgg is an aggregator whose /v1/stats (and everything else)
// answers a switchable status.
type flakyAgg struct {
	mu     sync.Mutex
	status int
}

func (f *flakyAgg) setStatus(code int) {
	f.mu.Lock()
	f.status = code
	f.mu.Unlock()
}

func (f *flakyAgg) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		code := f.status
		f.mu.Unlock()
		if code != 0 {
			http.Error(w, "injected failure", code)
			return
		}
		_, _ = w.Write([]byte(`{}`))
	})
}

// TestHealthProbeLoopEjectsDeadAggregator runs the background probe
// loop against a failing aggregator and watches /v1/router/stats flip
// it unhealthy, then healthy again after recovery — no proxy traffic
// involved.
func TestHealthProbeLoopEjectsDeadAggregator(t *testing.T) {
	agg := &flakyAgg{}
	ats := httptest.NewServer(agg.handler())
	t.Cleanup(ats.Close)
	ing := httptest.NewServer((&fakeIngest{}).handler())
	t.Cleanup(ing.Close)

	r := newTestRouter(t, []string{ing.URL}, []string{ats.URL}, router.Config{
		Timeout:         time.Second,
		HealthInterval:  5 * time.Millisecond,
		HealthThreshold: 2,
	})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)

	agg.setStatus(http.StatusInternalServerError)
	waitUntil(t, 5*time.Second, "aggregator ejected by probes", func() bool {
		st := routerStats(t, rs.URL)
		return len(st.Aggregators) == 1 && !st.Aggregators[0].Healthy
	})
	agg.setStatus(0)
	waitUntil(t, 5*time.Second, "aggregator re-admitted by probes", func() bool {
		st := routerStats(t, rs.URL)
		return st.Aggregators[0].Healthy && st.Aggregators[0].Probes > 0
	})
}
