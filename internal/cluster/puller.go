package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Applier is the aggregator-side sink for pulled summaries. The
// engine's AbsorbSource is the intended implementation: blobs are
// cumulative snapshots, so applying a source's newer blob must
// replace its older one, never accumulate.
type Applier interface {
	ApplySource(source string, blob []byte) error
}

// ApplierFunc adapts a function to the Applier interface.
type ApplierFunc func(source string, blob []byte) error

// ApplySource implements Applier.
func (f ApplierFunc) ApplySource(source string, blob []byte) error { return f(source, blob) }

// maxApplyRetries bounds how many times one fetched blob is re-applied
// after its first apply failed before the puller gives up on it and
// re-probes the source. The retry exists because an apply failure is
// usually the aggregator's transient problem (e.g. an absorb racing a
// shutdown), not the blob's; the cap exists because a genuinely
// poisoned blob must not wedge the source forever when a fresh probe
// could fetch newer, healthy state.
const maxApplyRetries = 3

// SourceStats is one source's anti-entropy counters, read off a
// Puller for the daemon's /v1/stats and for the cluster tests (which
// assert that an idle source costs not-modified probes, not blob
// transfers).
type SourceStats struct {
	URL string `json:"url"`
	// ETag is the validator of the last blob successfully applied
	// (empty until the first successful pull).
	ETag string `json:"etag,omitempty"`
	// Pulls counts conditional GET attempts.
	Pulls int64 `json:"pulls"`
	// Changed counts blobs applied: 200 responses whose blob was
	// accepted, whether on first application or on a later retry of
	// the stashed blob.
	Changed int64 `json:"changed"`
	// NotModified counts 304 responses (state unchanged since the
	// held ETag — no body transferred).
	NotModified int64 `json:"not_modified"`
	// Errors counts failed attempts: transport errors, non-200/304
	// statuses, and blobs the Applier refused.
	Errors int64 `json:"errors"`
	// ApplyRetries counts re-applications of a stashed blob whose
	// first apply failed. A retry round costs no HTTP traffic: the
	// same bytes are offered to the Applier again, so a source whose
	// state flaps between two ETags cannot force a re-fetch per
	// failure.
	ApplyRetries int64 `json:"apply_retries,omitempty"`
	// ConsecFailures counts failures since the last success; any
	// successful attempt (304 or applied blob) resets it. Health
	// checks eject on this, not on the lifetime Errors count.
	ConsecFailures int64 `json:"consec_failures,omitempty"`
	// LastError is the most recent failure, cleared by the next
	// successful attempt.
	LastError string `json:"last_error,omitempty"`
	// Rows is the row count the source's last applied blob reported
	// via the daemon's X-Epoch-Rows header (0 if absent).
	Rows int64 `json:"rows"`
}

// pendingBlob is a fetched-but-not-yet-applied summary: a 200
// response whose apply failed. The next rounds retry applying these
// same bytes (advancing the ETag only on success) instead of
// re-probing, so the source is never asked to re-ship state the
// puller already holds.
type pendingBlob struct {
	etag  string
	rows  int64
	blob  []byte
	tries int // apply attempts so far (the failed inline one included)
}

// sourceState is one source's counters plus its retry stash.
type sourceState struct {
	stats   SourceStats
	pending *pendingBlob
}

// Puller runs conditional-GET anti-entropy: each source's /v1/summary
// is fetched with If-None-Match set to the last applied ETag, so an
// unchanged source answers 304 with no body and only changed shards
// ship. The pull model keeps ingest nodes passive (they only serve
// their existing summary endpoint) and makes aggregator state soft:
// a restarted aggregator starts with no ETags and re-pulls everything.
//
// The source set is dynamic: Add and Remove adjust membership between
// rounds, which is how an aggregator follows the router's membership
// epochs without a restart.
type Puller struct {
	apply  Applier
	client *http.Client

	// applyMu makes applying a source's blob and removing the source
	// mutually exclusive: an apply runs only while its source is still
	// registered, and Remove waits out an apply in flight. So once
	// Remove returns, nothing fetched from the source can land in the
	// Applier, and the caller's drop of its state is final.
	applyMu sync.Mutex

	mu      sync.Mutex
	sources []string // sorted
	state   map[string]*sourceState
}

// NewPuller builds a puller over the given source base URLs (scheme
// and host, no path — "/v1/summary" is appended). URLs are
// deduplicated and sorted; at least one is required.
func NewPuller(sources []string, apply Applier, timeout time.Duration) (*Puller, error) {
	if apply == nil {
		return nil, errors.New("cluster: nil Applier")
	}
	p := &Puller{
		apply:  apply,
		client: &http.Client{Timeout: timeout},
		state:  make(map[string]*sourceState, len(sources)),
	}
	for _, s := range sources {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, errors.New("cluster: empty source URL")
		}
		p.addLocked(s)
	}
	if len(p.sources) == 0 {
		return nil, errors.New("cluster: puller needs at least one source")
	}
	return p, nil
}

// addLocked inserts one normalized source; callers hold mu (or, in the
// constructor, own the puller exclusively).
func (p *Puller) addLocked(src string) {
	if p.state[src] != nil {
		return
	}
	p.state[src] = &sourceState{stats: SourceStats{URL: src}}
	p.sources = append(p.sources, src)
	sort.Strings(p.sources)
}

// Add registers a new source; future rounds pull it cold (no ETag).
// Adding an existing source is a no-op.
func (p *Puller) Add(src string) error {
	src = strings.TrimRight(strings.TrimSpace(src), "/")
	if src == "" {
		return errors.New("cluster: empty source URL")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addLocked(src)
	return nil
}

// Remove forgets a source — its counters, ETag, and any stashed blob —
// and reports whether it was present. The caller owns removing the
// source's absorbed state from the engine (engine.RemoveSource); the
// puller only stops asking, and applies no blob for the source once
// Remove has returned.
func (p *Puller) Remove(src string) bool {
	src = strings.TrimRight(strings.TrimSpace(src), "/")
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state[src] == nil {
		return false
	}
	delete(p.state, src)
	for i, s := range p.sources {
		if s == src {
			p.sources = append(p.sources[:i], p.sources[i+1:]...)
			break
		}
	}
	return true
}

// Sources returns the configured source URLs, sorted.
func (p *Puller) Sources() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.sources))
	copy(out, p.sources)
	return out
}

// Stats returns a snapshot of every source's counters, sorted by URL.
func (p *Puller) Stats() []SourceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SourceStats, 0, len(p.sources))
	for _, s := range p.sources {
		out = append(out, p.state[s].stats)
	}
	return out
}

// PullOnce runs one anti-entropy round: every source is probed (a
// failure on one does not skip the rest) and the first error, if any,
// is returned after the round completes. Sources are probed
// sequentially in sorted order — rounds are about convergence, not
// latency, and sequential probes keep the aggregator's absorb
// ordering deterministic for the tests.
func (p *Puller) PullOnce(ctx context.Context) error {
	var first error
	for _, src := range p.Sources() {
		if err := p.pullSource(ctx, src); err != nil && first == nil {
			first = err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return first
}

// fail records one failed attempt against src and returns err.
func (p *Puller) fail(src string, err error) error {
	p.mu.Lock()
	if st := p.state[src]; st != nil {
		st.stats.Errors++
		st.stats.ConsecFailures++
		st.stats.LastError = err.Error()
	}
	p.mu.Unlock()
	return err
}

// pullSource advances one source by one step: a stashed blob is
// re-applied without touching the network; otherwise the source is
// probed with a conditional GET and the blob applied on 200. The
// stored ETag advances only after the Applier accepts a blob: if
// apply fails, the blob is stashed and the next rounds retry these
// same bytes (up to maxApplyRetries) instead of recording the state
// as converged — or re-shipping it.
func (p *Puller) pullSource(ctx context.Context, src string) error {
	p.mu.Lock()
	st := p.state[src]
	if st == nil {
		// Removed between the round's snapshot and now.
		p.mu.Unlock()
		return nil
	}
	pending := st.pending
	etag := st.stats.ETag
	p.mu.Unlock()

	if pending != nil {
		return p.applyBlob(src, pending, true)
	}

	p.mu.Lock()
	st.stats.Pulls++
	p.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src+"/v1/summary", nil)
	if err != nil {
		return p.fail(src, fmt.Errorf("cluster: pull %s: %w", src, err))
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return p.fail(src, fmt.Errorf("cluster: pull %s: %w", src, err))
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusNotModified:
		p.mu.Lock()
		st.stats.NotModified++
		st.stats.ConsecFailures = 0
		st.stats.LastError = ""
		p.mu.Unlock()
		return nil
	case http.StatusOK:
		// fall through to apply
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return p.fail(src, fmt.Errorf("cluster: pull %s: status %d: %s", src, resp.StatusCode, strings.TrimSpace(string(body))))
	}

	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return p.fail(src, fmt.Errorf("cluster: pull %s: reading body: %w", src, err))
	}
	var rows int64
	fmt.Sscanf(resp.Header.Get("X-Epoch-Rows"), "%d", &rows)
	return p.applyBlob(src, &pendingBlob{
		etag: resp.Header.Get("ETag"),
		rows: rows,
		blob: blob,
	}, false)
}

// applyBlob offers one fetched blob to the Applier and settles the
// source's state: success advances the ETag and clears any stash;
// failure stashes the blob for retry (fresh fetch) or counts the
// retry and drops the stash once the cap is reached.
func (p *Puller) applyBlob(src string, b *pendingBlob, retry bool) error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.mu.Lock()
	st := p.state[src]
	p.mu.Unlock()
	if st == nil {
		return nil // removed since the fetch: its state must not come back
	}
	err := p.apply.ApplySource(src, b.blob)
	p.mu.Lock()
	defer p.mu.Unlock()
	if retry {
		st.stats.ApplyRetries++
	}
	if err != nil {
		b.tries++
		st.stats.Errors++
		st.stats.ConsecFailures++
		st.stats.LastError = err.Error()
		if b.tries < maxApplyRetries {
			st.pending = b
		} else {
			// The blob is plausibly poisoned: drop it and let the next
			// round probe for (possibly newer) state.
			st.pending = nil
		}
		return fmt.Errorf("cluster: pull %s: applying: %w", src, err)
	}
	st.pending = nil
	st.stats.Changed++
	st.stats.ETag = b.etag
	st.stats.Rows = b.rows
	st.stats.ConsecFailures = 0
	st.stats.LastError = ""
	return nil
}

// Run pulls on the given cadence until ctx is done. The first round
// runs immediately (an aggregator should serve data as soon as its
// sources have any), later rounds on the interval tick. Errors are
// recorded in the per-source stats and otherwise ignored — transient
// source outages are expected during node restarts, and the next
// round retries.
func (p *Puller) Run(ctx context.Context, interval time.Duration) {
	_ = p.PullOnce(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = p.PullOnce(ctx)
		}
	}
}
