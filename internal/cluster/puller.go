package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
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

// pullGap paces each source's pull loop by the pull's own cost: after
// a changed pull that took w of the aggregator's time (round trip plus
// apply, minus the time the source held the request), the loop sleeps
// pullGap·w before asking again. Pulling a source therefore takes at
// most 1/(1+pullGap) = 10 % of its loop's wall time, however busy the
// source is; without the gap a busy source would be re-pulled back to
// back, and the marshal, transfer and merge would compete with ingest
// for the same cores.
const pullGap = 9

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
	// first apply failed. A retry costs no HTTP traffic: the
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
}

// pendingBlob is a fetched-but-not-yet-applied summary: a 200
// response whose apply failed. The next steps retry applying these
// same bytes (advancing the ETag only on success) instead of
// re-probing, so the source is never asked to re-ship state the
// puller already holds.
type pendingBlob struct {
	etag  string
	blob  []byte
	tries int // apply attempts so far (the failed inline one included)
}

// sourceState is one source's counters plus its retry stash, and the
// cancel func of its pull loop while Run is active.
type sourceState struct {
	stats   SourceStats
	pending *pendingBlob
	cancel  context.CancelFunc
}

// pullResult is what one pull step reports to the loop that paces it:
// whether a blob was applied, and how long the source held the request
// before answering (its Server-Timing "hold" entry).
type pullResult struct {
	applied bool
	hold    time.Duration
}

// Puller runs conditional-GET anti-entropy: each source's /v1/summary
// is fetched with If-None-Match set to the last applied ETag, so an
// unchanged source answers 304 with no body and only changed shards
// ship. The pull model keeps ingest nodes passive (they only serve
// their existing summary endpoint) and makes aggregator state soft:
// a restarted aggregator starts with no ETags and re-pulls everything.
//
// Run long-polls: one loop per source asks the source to hold the
// conditional GET until its epoch moves, so a change ships as soon as
// the source has it rather than on the next tick of a fixed probe.
//
// The source set is dynamic: Add and Remove adjust membership while
// Run is active, which is how an aggregator follows the router's
// membership epochs without a restart.
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
	// runCtx and runInterval are an active Run's context and interval
	// (runCtx is nil otherwise); loops counts the source loops it
	// started. All three are guarded by mu.
	runCtx      context.Context
	runInterval time.Duration
	loops       sync.WaitGroup
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

// addLocked inserts one normalized source and, while Run is active,
// starts its pull loop; callers hold mu (or, in the constructor, own
// the puller exclusively).
func (p *Puller) addLocked(src string) {
	if p.state[src] != nil {
		return
	}
	st := &sourceState{stats: SourceStats{URL: src}}
	p.state[src] = st
	p.sources = append(p.sources, src)
	sort.Strings(p.sources)
	p.startLocked(src, st)
}

// startLocked starts src's pull loop if Run is active; callers hold mu.
func (p *Puller) startLocked(src string, st *sourceState) {
	if p.runCtx == nil {
		return
	}
	ctx, cancel := context.WithCancel(p.runCtx)
	st.cancel = cancel
	interval := p.runInterval
	p.loops.Add(1)
	go func() {
		defer p.loops.Done()
		defer cancel()
		p.loop(ctx, src, st, interval)
	}()
}

// Add registers a new source, pulled cold (no ETag): at once while Run
// is active, else by the next PullOnce or Run. Adding an existing
// source is a no-op.
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
// puller only stops asking — a held pull of the source is aborted —
// and applies no blob for the source once Remove has returned.
func (p *Puller) Remove(src string) bool {
	src = strings.TrimRight(strings.TrimSpace(src), "/")
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[src]
	if st == nil {
		return false
	}
	if st.cancel != nil {
		st.cancel()
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
// sequentially in sorted order and no probe is held — a round is about
// convergence, not latency, and sequential probes keep the
// aggregator's absorb ordering deterministic for the tests and the
// admin hand-off.
func (p *Puller) PullOnce(ctx context.Context) error {
	var first error
	for _, src := range p.Sources() {
		p.mu.Lock()
		st := p.state[src]
		p.mu.Unlock()
		if st == nil {
			continue // removed since the snapshot
		}
		if _, err := p.pullSource(ctx, src, st, 0); err != nil && first == nil {
			first = err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return first
}

// fail records one failed attempt in st and returns err.
func (p *Puller) fail(st *sourceState, err error) error {
	p.mu.Lock()
	st.stats.Errors++
	st.stats.ConsecFailures++
	st.stats.LastError = err.Error()
	p.mu.Unlock()
	return err
}

// pullSource advances one source (src, whose state is st) by one
// step: a stashed blob is re-applied without touching the network;
// otherwise the source is probed with a conditional GET and the blob
// applied on 200. A positive wait asks the source to hold an unchanged
// probe for up to that long. The stored ETag advances only after the
// Applier accepts a blob: if apply fails, the blob is stashed and the
// next steps retry these same bytes (up to maxApplyRetries) instead of
// recording the state as converged — or re-shipping it.
func (p *Puller) pullSource(ctx context.Context, src string, st *sourceState, wait time.Duration) (pullResult, error) {
	p.mu.Lock()
	pending := st.pending
	etag := st.stats.ETag
	p.mu.Unlock()

	if pending != nil {
		return pullResult{applied: true}, p.applyBlob(src, st, pending, true)
	}

	p.mu.Lock()
	st.stats.Pulls++
	p.mu.Unlock()

	url := src + "/v1/summary"
	if wait > 0 {
		url += "?wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return pullResult{}, p.fail(st, fmt.Errorf("cluster: pull %s: %w", src, err))
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return pullResult{}, p.fail(st, fmt.Errorf("cluster: pull %s: %w", src, err))
	}
	defer resp.Body.Close()
	res := pullResult{hold: serverHold(resp.Header)}

	switch resp.StatusCode {
	case http.StatusNotModified:
		p.mu.Lock()
		st.stats.NotModified++
		st.stats.ConsecFailures = 0
		st.stats.LastError = ""
		p.mu.Unlock()
		return res, nil
	case http.StatusOK:
		// fall through to apply
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return res, p.fail(st, fmt.Errorf("cluster: pull %s: status %d: %s", src, resp.StatusCode, strings.TrimSpace(string(body))))
	}

	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, p.fail(st, fmt.Errorf("cluster: pull %s: reading body: %w", src, err))
	}
	res.applied = true
	return res, p.applyBlob(src, st, &pendingBlob{etag: resp.Header.Get("ETag"), blob: blob}, false)
}

// serverHold reads how long the source held a request from its
// "Server-Timing: hold;dur=<ms>" header; 0 when absent.
func serverHold(h http.Header) time.Duration {
	for _, metric := range strings.Split(h.Get("Server-Timing"), ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(metric), ";")
		if name != "hold" {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "dur="); ok {
				if ms, err := strconv.ParseFloat(v, 64); err == nil && ms > 0 {
					return time.Duration(ms * float64(time.Millisecond))
				}
			}
		}
	}
	return 0
}

// applyBlob offers one blob fetched for src (whose state was st) to the
// Applier and settles the source's state: success advances the ETag and
// clears any stash; failure stashes the blob for retry (fresh fetch) or
// counts the retry and drops the stash once the cap is reached.
func (p *Puller) applyBlob(src string, st *sourceState, b *pendingBlob, retry bool) error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.mu.Lock()
	live := p.state[src] == st
	p.mu.Unlock()
	if !live {
		// Removed since the fetch (and perhaps re-added): its state must
		// not come back.
		return nil
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
			// pull probe for (possibly newer) state.
			st.pending = nil
		}
		return fmt.Errorf("cluster: pull %s: applying: %w", src, err)
	}
	st.pending = nil
	st.stats.Changed++
	st.stats.ETag = b.etag
	st.stats.ConsecFailures = 0
	st.stats.LastError = ""
	return nil
}

// Run long-polls every source until ctx is done, and returns once
// every source loop has stopped. Each source gets its own loop (Add
// starts one for a source added meanwhile, Remove stops it), which
// starts at once — an aggregator should serve data as soon as its
// sources have any — and then repeats one conditional GET that asks
// the source to hold it for up to interval:
//
//   - a 304 (the hold expired with the epoch unchanged) re-pulls at
//     once; a 304 the source did not hold (one that does not long-poll)
//     waits out the rest of interval first, the old fixed cadence;
//   - a 200 applies the blob and then sleeps pullGap times the pull's
//     own cost, its round trip plus apply minus the source's hold;
//   - a failure backs off by interval. Errors are recorded in the
//     per-source stats and otherwise ignored — transient source outages
//     are expected during node restarts, and the next pull retries.
func (p *Puller) Run(ctx context.Context, interval time.Duration) {
	p.mu.Lock()
	p.runCtx, p.runInterval = ctx, interval
	for _, src := range p.sources {
		p.startLocked(src, p.state[src])
	}
	p.mu.Unlock()
	<-ctx.Done()
	p.mu.Lock()
	p.runCtx = nil
	p.mu.Unlock()
	p.loops.Wait()
}

// loop is one source's long-poll loop under Run; see Run for its
// pacing. It ends when ctx does: at Run's end or the source's Remove.
func (p *Puller) loop(ctx context.Context, src string, st *sourceState, interval time.Duration) {
	for ctx.Err() == nil {
		start := time.Now()
		res, err := p.pullSource(ctx, src, st, interval)
		var pause time.Duration
		switch {
		case err != nil:
			pause = interval
		case res.applied:
			pause = pullGap * (time.Since(start) - res.hold)
		case res.hold == 0:
			pause = interval - time.Since(start)
		}
		if pause > 0 {
			t := time.NewTimer(pause)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
	}
}
