package router

// Aggregator health tracking: the router probes each aggregator's
// /v1/stats on an interval and also feeds in the outcome of every
// proxied read. An aggregator that fails `threshold` consecutive
// checks is ejected — reads stop trying it first — and any later
// success (probe or proxy) re-admits it immediately. Ejection is an
// ordering hint, not a hard ban: when every aggregator looks dead the
// proxy still walks the full list, so reads recover as soon as any
// aggregator does even if the probe loop hasn't noticed yet.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// AggHealth is one aggregator's health snapshot on /v1/router/stats.
type AggHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecFailures counts failed checks since the last success; the
	// aggregator is ejected when it reaches the router's threshold.
	ConsecFailures int `json:"consec_failures,omitempty"`
	// Ejections counts healthy→unhealthy transitions.
	Ejections int64 `json:"ejections"`
	// Probes counts background probe-loop checks (proxy outcomes are
	// folded into ConsecFailures but not counted here).
	Probes    int64  `json:"probes"`
	LastError string `json:"last_error,omitempty"`
}

// aggState is one aggregator's mutable health record.
type aggState struct {
	healthy   bool
	consec    int
	ejections int64
	probes    int64
	lastErr   string
}

// healthChecker tracks aggregator liveness for the read path.
type healthChecker struct {
	urls      []string // sorted, fixed at construction
	threshold int
	client    *http.Client

	rr atomic.Uint64 // round-robin cursor for pick

	mu    sync.Mutex
	state map[string]*aggState

	stop chan struct{}
	done chan struct{}
}

// newHealthChecker builds the tracker with every aggregator presumed
// healthy.
func newHealthChecker(urls []string, threshold int, client *http.Client) *healthChecker {
	h := &healthChecker{
		urls:      urls,
		threshold: threshold,
		client:    client,
		state:     make(map[string]*aggState, len(urls)),
	}
	for _, u := range urls {
		h.state[u] = &aggState{healthy: true}
	}
	return h
}

// start launches the background probe loop; no-op if interval <= 0
// (proxy outcomes alone then drive ejection, which the unit tests use
// to stay deterministic).
func (h *healthChecker) start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.probeAll()
			}
		}
	}()
}

// stopProbes halts the probe loop, if one is running.
func (h *healthChecker) stopProbes() {
	if h.stop == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.stop = nil
}

// probeAll checks every aggregator's /v1/stats once.
func (h *healthChecker) probeAll() {
	for _, u := range h.urls {
		resp, err := h.client.Get(u + "/v1/stats")
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			resp.Body.Close()
		}
		h.mu.Lock()
		h.state[u].probes++
		h.mu.Unlock()
		h.report(u, ok, err)
	}
}

// report folds one check outcome (probe or live proxy attempt) into
// the aggregator's record: a success re-admits immediately, the
// threshold-th consecutive failure ejects.
func (h *healthChecker) report(url string, ok bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[url]
	if st == nil {
		return
	}
	if ok {
		st.healthy = true
		st.consec = 0
		st.lastErr = ""
		return
	}
	st.consec++
	if err != nil {
		st.lastErr = err.Error()
	}
	if st.healthy && st.consec >= h.threshold {
		st.healthy = false
		st.ejections++
	}
}

// pick returns the aggregators in try order for one read: the healthy
// ones first, rotated round-robin so load spreads, then the ejected
// ones as a last resort so a full outage still probes for recovery.
func (h *healthChecker) pick() []string {
	n := len(h.urls)
	start := int(h.rr.Add(1)-1) % n
	h.mu.Lock()
	defer h.mu.Unlock()
	healthy := make([]string, 0, n)
	var unhealthy []string
	for i := 0; i < n; i++ {
		u := h.urls[(start+i)%n]
		if h.state[u].healthy {
			healthy = append(healthy, u)
		} else {
			unhealthy = append(unhealthy, u)
		}
	}
	return append(healthy, unhealthy...)
}

// snapshot reports every aggregator's health, in URL order.
func (h *healthChecker) snapshot() []AggHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]AggHealth, 0, len(h.urls))
	for _, u := range h.urls {
		st := h.state[u]
		out = append(out, AggHealth{
			URL:            u,
			Healthy:        st.healthy,
			ConsecFailures: st.consec,
			Ejections:      st.ejections,
			Probes:         st.probes,
			LastError:      st.lastErr,
		})
	}
	return out
}
