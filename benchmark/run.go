package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// topology is one running set of daemons and the roles a run needs:
// where clients write and ask, whose /v1/stats shows what a reader can
// see, and which nodes own rows (nodes[0] is the one the recovery
// phase crashes).
type topology struct {
	front  *proc
	reads  *proc
	nodes  []*proc
	router *proc // nil for a single daemon
}

// runner carries one run of one workload: its inputs, the live
// topology, the samples the phases collect and the failure count.
type runner struct {
	w    *workload
	sz   sizes
	in   *inputs
	l    *launcher
	topo *topology
	http *http.Client
	tr   *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	sent int // pool bodies sent so far, preload included

	setup      []float64 // seconds, one per set-up
	acks       []float64 // ms
	ackAt      []time.Duration
	ingestRate []float64 // rows/s, one per round of the ingest phase
	queryLat   []float64 // ms
	answers    []answer
	polls      []poll
	late       []float64 // ms the open-loop senders ran behind
	visible    []float64 // ms, from probeVisibility
	summary    []byte
	recover    []float64 // seconds, one per owning node
	recoveries int       // crashes behind them
	cachedHits int
	results    int
	epochSeq0  uint64
	epochSeq1  uint64
	lastStats  *nodeStats

	// onKill, when set, runs between a crash and the respawn, outside
	// the recovery time (the traced run reads the dead node's log there).
	onKill func(*proc) error
}

// answer is one /v1/query response kept for checking.
type answer struct {
	req  *request
	resp queryResponse
}

// poll is one observation of the read endpoint's row clock.
type poll struct {
	at     time.Duration // when the response arrived
	merged int64
}

// The wire shapes read back from the daemons.
type (
	hitJSON struct {
		Pattern  []uint16 `json:"pattern"`
		Estimate float64  `json:"estimate"`
	}
	resultJSON struct {
		Value  float64   `json:"value"`
		Hits   []hitJSON `json:"hits"`
		Error  string    `json:"error"`
		Cached bool      `json:"cached"`
	}
	epochJSON struct {
		Seq        uint64 `json:"seq"`
		Rows       int64  `json:"rows"`
		MergedRows int64  `json:"merged_rows"`
	}
	queryResponse struct {
		Results []resultJSON `json:"results"`
		Epoch   epochJSON    `json:"epoch"`
	}
	sourceStats struct {
		Pulls   int64 `json:"pulls"`
		Changed int64 `json:"changed"`
	}
	nodeStats struct {
		Rows  int64     `json:"rows"`
		Epoch epochJSON `json:"epoch"`
		Store struct {
			Segments    int   `json:"segments"`
			LogBytes    int64 `json:"log_bytes"`
			Checkpoints int   `json:"checkpoints"`
		} `json:"store"`
		Cluster struct {
			Sources []sourceStats `json:"sources"`
		} `json:"cluster"`
	}
	routerStats struct {
		Queues []struct {
			Enqueued int64 `json:"enqueued"`
			Shed     int64 `json:"shed"`
			Rejected int64 `json:"rejected"`
		} `json:"queues"`
	}
)

func newRunner(w *workload, sz sizes, in *inputs, l *launcher, tr *tracer) *runner {
	return &runner{
		w: w, sz: sz, in: in, l: l, tr: tr,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
}

// fail counts one failed operation; the first few are kept verbatim.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// call makes one HTTP request and counts it as an attempted
// operation; anything but a 200 with a readable body is a failure,
// reported to the caller as ok == false.
func (r *runner) call(span string, parent, op int64, method, url string, body []byte) (out []byte, ok bool) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	id := r.tr.begin(span, parent, op)
	defer r.tr.end(id)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		r.fail("%s %s: %v", method, url, err)
		return nil, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.http.Do(req)
	if err != nil {
		r.fail("%s %s: %v", method, url, err)
		return nil, false
	}
	out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.fail("%s %s: status %d, %v: %.200s", method, url, resp.StatusCode, err, out)
		return nil, false
	}
	return out, true
}

// stats reads one daemon's /v1/stats.
func (r *runner) stats(p *proc, parent int64) (*nodeStats, bool) {
	out, ok := r.call("client.stats", parent, 0, http.MethodGet, p.url()+"/v1/stats", nil)
	if !ok {
		return nil, false
	}
	st := new(nodeStats)
	if err := json.Unmarshal(out, st); err != nil {
		r.fail("decoding %s /v1/stats: %v", p.name, err)
		return nil, false
	}
	return st, true
}

// bringUp spawns the workload's topology.
func (r *runner) bringUp() error {
	w, l := r.w, r.l
	node := func(name string) (*proc, error) {
		args := append(w.shape(), w.extra...)
		dir := ""
		if w.durable {
			dir = l.dataDir(name)
			args = append(args, "-data-dir", dir)
		}
		p, err := l.start(name, "projfreqd", args...)
		if p != nil {
			p.dataDir = dir
		}
		return p, err
	}
	if !w.cluster {
		p, err := node("node")
		if err != nil {
			return err
		}
		r.topo = &topology{front: p, reads: p, nodes: []*proc{p}}
		return nil
	}
	t := &topology{}
	var urls []string
	for i := 0; i < 2; i++ {
		p, err := node(fmt.Sprintf("ingest%d", i))
		if err != nil {
			return err
		}
		t.nodes = append(t.nodes, p)
		urls = append(urls, p.url())
	}
	aggArgs := append(append(w.shape(), sampleFlags...),
		"-pull-from", strings.Join(urls, ","), "-pull-interval", pullEvery.String())
	agg, err := l.start("aggregator", "projfreqd", aggArgs...)
	if err != nil {
		return err
	}
	router, err := l.start("router", "projfreq-router",
		"-ingest", strings.Join(urls, ","), "-aggregators", agg.url())
	if err != nil {
		return err
	}
	t.front, t.reads, t.router = router, agg, router
	r.topo = t
	return nil
}

// observe posts the next n pool bodies to the front door as one
// request; it returns the ack's latency.
func (r *runner) observe(span string, parent int64, n int) time.Duration {
	r.sent += n
	return r.post(span, parent, r.sent-n, n)
}

// post sends pool bodies first … first+n−1 to the front door as one
// request and checks the ack.
func (r *runner) post(span string, parent int64, first, n int) time.Duration {
	body := r.in.body(first, n)
	start := time.Now()
	out, ok := r.call(span, parent, int64(first), http.MethodPost, r.topo.front.url()+"/v1/observe", body)
	took := time.Since(start)
	if ok {
		var ack struct {
			Accepted int `json:"accepted"`
			Queued   int `json:"queued"`
			Shed     int `json:"shed"`
		}
		if err := json.Unmarshal(out, &ack); err != nil || ack.Accepted != n*batchRows || ack.Queued != 0 || ack.Shed != 0 {
			r.fail("observe ack %d: %v %s", first, err, out)
		}
	}
	return took
}

// setUp spawns the topology, waits until every daemon answers and
// sends the preload, and records how long that took. A run sets up
// several times and reports the median; tearDown comes between.
func (r *runner) setUp() error {
	r.sent = 0
	start := time.Now()
	if err := r.bringUp(); err != nil {
		return err
	}
	id := r.tr.begin("phase.preload", 0, 0)
	for b := 0; b < r.sz.preload; b += r.in.group {
		r.observe("client.observe", id, r.in.group)
	}
	r.tr.end(id)
	r.setup = append(r.setup, time.Since(start).Seconds())
	return nil
}

// tearDown kills the topology and deletes its data directories, so a
// repeated set-up starts from nothing and leaves nothing behind.
func (r *runner) tearDown() {
	r.l.forget()
	for _, p := range r.topo.nodes {
		if p.dataDir != "" {
			_ = os.RemoveAll(p.dataDir) // scratch; cleanup removes the parent too
		}
	}
}

// ingest is the timed write phase, or one block of it: one closed-loop
// writer posts the next n pool bodies while a poller (or, in a workload with a reader, the
// open-loop dashboard reader) watches the read endpoint's row clock.
// The phase ends when every row is acked and applied on the nodes that
// own it; the watcher then runs on until the read endpoint shows all
// of them.
func (r *runner) ingest(ctx context.Context, n int) {
	phase := r.tr.begin("phase.ingest", 0, 0)
	defer r.tr.end(phase)
	if st, ok := r.stats(r.topo.reads, phase); ok {
		r.epochSeq0 = st.Epoch.Seq
	}
	first := r.sent
	total := int64(first+n) * batchRows
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.ackAt, r.polls = r.ackAt[:0], r.polls[:0] // visibility is per round; acks pool
	start := time.Now()

	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		switch {
		case r.w.reader:
			r.watch(ctx, start, phase, total, readEvery, true, r.readDashboard)
		case r.sz.probes == 0:
			r.watch(ctx, start, phase, total, pollEvery, false, r.pollStats)
		}
	}()

	var checkpoints sync.WaitGroup
	marks := append([]float64(nil), r.w.checkpointAt...)
	for b := 0; b < n && ctx.Err() == nil; b += r.in.group {
		took := r.observe("client.observe", phase, r.in.group)
		r.acks = append(r.acks, ms(took))
		r.ackAt = append(r.ackAt, time.Since(start))
		if len(marks) > 0 && float64(b+r.in.group) >= marks[0]*float64(n) {
			marks = marks[1:]
			checkpoints.Add(1)
			go func() { // beside the writer, as the daemon's own ticker would cut it
				defer checkpoints.Done()
				r.call("client.checkpoint", phase, 0, http.MethodPost, r.topo.nodes[0].url()+"/v1/admin/checkpoint", nil)
			}()
		}
	}
	// A strict read of each owning node passes the shard barrier, so
	// when it returns every acked row has been applied: the queue
	// behind an ack is part of the phase, not a gift to its rate.
	var applied int64
	for _, p := range r.topo.nodes {
		if st, ok := r.stats(p, phase); ok {
			applied += st.Epoch.Rows
			if p == r.topo.nodes[0] {
				r.lastStats = st
			}
		}
	}
	r.ingestRate = append(r.ingestRate, float64(n*batchRows)/time.Since(start).Seconds())
	if applied != total {
		r.fail("ingest tier applied %d rows, want %d", applied, total)
	}
	checkpoints.Wait()

	done := make(chan struct{})
	go func() { watcher.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cancel()
		<-done
		last := int64(-1)
		if n := len(r.polls); n > 0 {
			last = r.polls[n-1].merged
		}
		r.fail("read endpoint shows %d merged rows 30s after the last ack, want %d", last, total)
	}
	if st, ok := r.stats(r.topo.reads, phase); ok {
		r.epochSeq1 = st.Epoch.Seq
		if r.lastStats != nil && r.topo.reads != r.topo.nodes[0] {
			r.lastStats.Cluster = st.Cluster // the pull counters live on the aggregator
		}
	}
}

// probeVisibility measures visibility on a daemon that rebuilds its
// read snapshot on every read after a write: there a poller beside
// the writer would be the heaviest load on the daemon (each poll of
// the exact summary re-merges every retained row), so the ingest
// phase runs alone and visibility is taken afterwards, one
// read-your-write at a time — post a batch, then read /v1/stats until
// it shows the batch, timed from the ack. The definition is the
// concurrent watcher's; only the polls are back to back.
func (r *runner) probeVisibility(n int) {
	phase := r.tr.begin("phase.visible", 0, 0)
	defer r.tr.end(phase)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.observe("client.observe", phase, 1)
		acked := time.Since(start)
		rows := int64(r.sent) * batchRows
		for tries := 0; ; tries++ {
			merged, ok := r.pollStats(phase, int64(i), time.Time{})
			if ok && merged >= rows {
				r.visible = append(r.visible, ms(time.Since(start)-acked))
				break
			}
			if !ok || tries == 1000 {
				r.fail("probe %d: batch not visible (%d of %d rows)", i, merged, rows)
				break
			}
		}
	}
}

// watch calls probe every interval until it reports total merged rows
// (or ctx ends), recording each observation. An open-loop watcher
// never skips a due send — a stall delays the sends behind it and
// their latency counts from the due time — while the plain poller
// drops the ticks it missed.
func (r *runner) watch(ctx context.Context, start time.Time, phase int64, total int64, every time.Duration,
	openLoop bool, probe func(parent, op int64, due time.Time) (merged int64, ok bool)) {
	for k := int64(0); ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if !openLoop {
			k = int64(time.Since(start) / every)
			due = start.Add(time.Duration(k) * every)
		}
		r.late = append(r.late, ms(time.Since(due)))
		merged, ok := probe(phase, k, due)
		if !ok {
			continue
		}
		r.polls = append(r.polls, poll{at: time.Since(start), merged: merged})
		if merged >= total {
			return
		}
	}
}

func (r *runner) pollStats(parent, op int64, _ time.Time) (int64, bool) {
	st, ok := r.stats(r.topo.reads, parent)
	if !ok {
		return 0, false
	}
	return st.Epoch.MergedRows, true
}

// readDashboard posts the dashboard batch; its latency counts from the
// time it was due, and its epoch block doubles as the row clock.
func (r *runner) readDashboard(parent, op int64, due time.Time) (int64, bool) {
	resp, ok := r.query(r.in.dashboard, parent, op)
	r.queryLat = append(r.queryLat, ms(time.Since(due)))
	if !ok {
		return 0, false
	}
	return resp.Epoch.MergedRows, true
}

// query posts one request to the front door and keeps the answer.
func (r *runner) query(req *request, parent, op int64) (*queryResponse, bool) {
	out, ok := r.call("client.query", parent, op, http.MethodPost, r.topo.front.url()+"/v1/query", req.body)
	if !ok {
		return nil, false
	}
	var resp queryResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Results) != len(req.queries) {
		r.fail("query %d: %v %.200s", op, err, out)
		return nil, false
	}
	for _, res := range resp.Results {
		r.results++
		if res.Cached {
			r.cachedHits++
		}
	}
	r.answers = append(r.answers, answer{req: req, resp: resp})
	return &resp, true
}

// queries is the post-ingest read phase: the query stream, one
// request at a time, each sent queryGap after the previous answer.
// Back to back, a sub-millisecond round trip depends on whether the
// two processes happen to share a warm core, which differs from run to
// run by more than any bound; after a pause every request pays the
// same wake-up, as a dashboard's requests do.
func (r *runner) queries() {
	phase := r.tr.begin("phase.query", 0, 0)
	defer r.tr.end(phase)
	for i := range r.in.requests {
		asleep := time.Now()
		time.Sleep(queryGap)
		r.late = append(r.late, ms(time.Since(asleep)-queryGap))
		start := time.Now()
		r.query(&r.in.requests[i], phase, int64(i))
		r.queryLat = append(r.queryLat, ms(time.Since(start)))
	}
}

// fetchSummary exports the final summary through the front door and
// reads the router's fault counters: a shed or rejected row is a
// failure even when every ack looked fine.
func (r *runner) fetchSummary() {
	if out, ok := r.call("client.summary", 0, 0, http.MethodGet, r.topo.front.url()+"/v1/summary", nil); ok {
		r.summary = out
	}
	if r.topo.router == nil {
		return
	}
	if rs, ok := r.routerStats(); ok {
		for _, q := range rs.Queues {
			if q.Shed > 0 || q.Rejected > 0 {
				r.fail("router shed %d and rejected %d rows", q.Shed, q.Rejected)
			}
		}
	}
}

func (r *runner) routerStats() (*routerStats, bool) {
	out, ok := r.call("client.stats", 0, 0, http.MethodGet, r.topo.router.url()+"/v1/router/stats", nil)
	if !ok {
		return nil, false
	}
	rs := new(routerStats)
	if err := json.Unmarshal(out, rs); err != nil {
		r.fail("decoding /v1/router/stats: %v", err)
		return nil, false
	}
	return rs, true
}

// crash SIGKILLs each owning node in turn and times how long the
// respawned daemon takes to answer /v1/stats with the rows its
// durability promises: everything it acked when it has a -data-dir,
// nothing when it runs in memory. A durable node is crashed several
// times over: a booting daemon heals its directory with a checkpoint,
// so every crash after the first is replayed from a copy of the
// directory as the first kill left it, put back outside the recovery
// time. The in-memory number is the daemon's boot-to-serving time, a
// few milliseconds, so it is taken many times. Either way a recovery
// takes the same steps every time and the host's noise only adds to
// them, so a node's time is the fastest of its crashes.
func (r *runner) crash() error {
	times := max(r.sz.crashes, 1)
	for _, p := range r.topo.nodes {
		before, ok := r.stats(p, 0)
		if !ok {
			return errors.New("no row count to recover to")
		}
		want := before.Rows
		if !r.w.durable {
			want = 0
		}
		crashed := p.dataDir + ".crashed"
		var took []float64
		for i := 0; i < times; i++ {
			id := r.tr.begin("phase.recover", 0, int64(i))
			start := time.Now()
			p.kill()
			paused := time.Now()
			if r.onKill != nil {
				if err := r.onKill(p); err != nil {
					return err
				}
			}
			if r.w.durable && times > 1 {
				if err := replayCrash(p.dataDir, crashed, i == 0); err != nil {
					return err
				}
			}
			start = start.Add(time.Since(paused))
			if err := p.run(); err != nil {
				return err
			}
			after, ok := r.stats(p, id)
			took = append(took, time.Since(start).Seconds())
			r.tr.end(id)
			if ok && after.Rows != want {
				r.fail("%s serves %d rows after recovery, want %d", p.name, after.Rows, want)
			}
		}
		r.recoveries += len(took)
		r.recover = append(r.recover, slices.Min(took))
	}
	return nil
}

// replayCrash keeps the data directory of a freshly killed daemon: the
// first crash saves a copy, every later one puts the copy back in place
// of whatever the recovered daemon made of the directory.
func replayCrash(dir, saved string, first bool) error {
	if first {
		return os.CopyFS(saved, os.DirFS(dir))
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.CopyFS(dir, os.DirFS(saved))
}

// visibility returns, for each acked ingest batch, how long after its
// ack the read endpoint first showed at least the rows acked so far.
// A batch the endpoint never showed has no entry (and the run has
// already failed on the row count).
func (r *runner) visibility() []float64 {
	if r.sz.probes > 0 {
		return r.visible
	}
	out := make([]float64, 0, len(r.ackAt))
	j := 0
	for i, at := range r.ackAt {
		rows := int64(r.sz.preload+(i+1)*r.in.group) * batchRows
		for j < len(r.polls) && r.polls[j].merged < rows {
			j++
		}
		if j == len(r.polls) {
			break
		}
		out = append(out, max(0, ms(r.polls[j].at-at)))
	}
	return out
}

// workDir names a fresh scratch directory under the checkout's build
// directory.
func workDir(root string) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
}
