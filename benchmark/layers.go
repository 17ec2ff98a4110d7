package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/anet"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hashing"
	"repro/internal/registry"
	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/words"
)

// The per-layer metrics, named <module>.<metric>. They come from the
// traced run: the workload at an eighth of the scale with a span
// around every client call, then a replay of its first batches and
// queries — over HTTP straight at the nodes, and in this process
// through each package's exported functions — while the topology is
// still up. None of them has a bound. The three tail latencies sit
// here too: on this sandbox their run-to-run spread is wider than any
// bound the acceptance rule allows (see README.md).
var perLayer = []metricDef{
	{name: "ack_p99_ms", unit: "ms", better: "lower"},
	{name: "query_p95_ms", unit: "ms", better: "lower"},
	{name: "visible_p95_ms", unit: "ms", better: "lower"},
	{name: "words.batch_keys_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "hashing.fingerprint_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "sketch.addbatch_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "anet.members", unit: "count", better: "lower"},
	{name: "core.observe_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "sample.observe_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "core.evaluate_ms_per_query", unit: "ms", better: "lower"},
	{name: "registry.plan_ns_per_query", unit: "ns", better: "lower"},
	{name: "engine.query_self_us", unit: "us", better: "lower"},
	{name: "engine.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "engine.ingest_self_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "engine.epoch_rebuild_ms", unit: "ms", better: "lower"},
	{name: "engine.epochs_built", unit: "count", better: "lower"},
	{name: "core.marshal_ms", unit: "ms", better: "lower"},
	{name: "core.unmarshal_ms", unit: "ms", better: "lower"},
	{name: "core.merge_ms", unit: "ms", better: "lower"},
	{name: "store.append_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "store.fsync_us", unit: "us", better: "lower"},
	{name: "store.log_bytes_per_row", unit: "bytes/row", better: "lower"},
	{name: "store.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "store.recover_ms_per_mrow", unit: "ms/Mrow", better: "lower"},
	{name: "store.segments", unit: "count", better: "lower"},
	{name: "store.checkpoints", unit: "count", better: "higher"},
	{name: "cluster.partition_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "cluster.pull_changed_ms", unit: "ms", better: "lower"},
	{name: "cluster.pull_304_us", unit: "us", better: "lower"},
	{name: "cluster.pull_blob_bytes", unit: "bytes", better: "lower"},
	{name: "cluster.pull_changed_ratio", unit: "ratio", better: "lower"},
	{name: "projfreqd.observe_self_us", unit: "us", better: "lower"},
	{name: "projfreqd.query_self_us", unit: "us", better: "lower"},
	{name: "projfreqd.cpu_s", unit: "s", better: "lower"},
	{name: "projfreqd.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "router.observe_self_us", unit: "us", better: "lower"},
	{name: "router.query_self_us", unit: "us", better: "lower"},
	{name: "router.queued_rows", unit: "rows", better: "lower"},
	{name: "router.shed_rows", unit: "rows", better: "lower"},
	{name: "router.cpu_s", unit: "s", better: "lower"},
	{name: "router.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "loadgen.cpu_s", unit: "s", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
	{name: "budget.residual_ratio", unit: "ratio", better: "lower"},
}

// budgetRow is one line of a workload's budget: a layer's self time on
// the path of one request, or the sum, the end-to-end median the sum
// should explain, and what is left over.
type budgetRow struct {
	Path  string  `json:"path"` // "ack" or "query"
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
}

// layers holds what the replay measured; values maps metric names to
// numbers, and a metric the workload's topology has no layer for stays
// absent and is reported as 0.
type layers struct {
	values map[string]float64
	// spanUS is the median length of each span name in µs and meanUS
	// the mean; "engine.observe.self" stands for that span's self time.
	spanUS, meanUS map[string]float64
	// ackMeanUS is the traced run's mean ack, which the ack budget
	// explains.
	ackMeanUS float64
	budget    []budgetRow
}

// runTraced makes the traced run of w: once untraced at the traced
// scale (the base of trace.overhead_ratio), once with spans and the
// layer replay.
func runTraced(ctx context.Context, cfg *config, w *workload) (*runResult, error) {
	plain, err := execute(ctx, cfg, w, cfg.scale(), nil, nil)
	if err != nil {
		return nil, err
	}
	var before, after syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &before) // cannot fail for RUSAGE_SELF
	tr := newTracer()
	lay := &layers{values: map[string]float64{}}
	traced, err := execute(ctx, cfg, w, cfg.scale(), tr, func(r *runner) error {
		r.onKill = func(p *proc) error { return lay.recovery(r, p) }
		return lay.measure(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &after)

	v := lay.values
	res := traced.result(cfg)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Failures = append(res.Failures, plain.failures...)
	res.Correct = res.Failed == 0

	v["ack_p99_ms"] = res.Metrics["ack_p99_ms"].Value
	v["query_p95_ms"] = res.Metrics["query_p95_ms"].Value
	v["visible_p95_ms"] = res.Metrics["visible_p95_ms"].Value
	if traced.results > 0 {
		v["engine.cache_hit_ratio"] = float64(traced.cachedHits) / float64(traced.results)
	}
	v["engine.epochs_built"] = float64(traced.epochSeq1 - traced.epochSeq0)
	if st := traced.lastStats; st != nil {
		v["store.segments"] = float64(st.Store.Segments)
		v["store.checkpoints"] = float64(st.Store.Checkpoints)
		var pulls, changed int64
		for _, src := range st.Cluster.Sources {
			pulls += src.Pulls
			changed += src.Changed
		}
		if pulls > 0 {
			v["cluster.pull_changed_ratio"] = float64(changed) / float64(pulls)
		}
	}
	cpu, rss := traced.l.usage("projfreqd")
	v["projfreqd.cpu_s"], v["projfreqd.rss_peak_mb"] = cpu.Seconds(), float64(rss)/1024
	cpu, rss = traced.l.usage("projfreq-router")
	v["router.cpu_s"], v["router.rss_peak_mb"] = cpu.Seconds(), float64(rss)/1024
	v["loadgen.cpu_s"] = time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano()).Seconds()
	v["loadgen.late_p99_ms"] = percentile(traced.late, 99)
	v["trace.overhead_ratio"] = median(traced.ingestRate) / median(plain.ingestRate)
	lay.ackMeanUS = mean(traced.acks) * 1e3
	lay.stash(tr)
	lay.settle(w, res)

	for _, def := range perLayer {
		res.Metrics[def.name] = metricValue{v[def.name], def.unit}
	}
	res.Budget = lay.budget
	return res, tr.write(filepath.Join(cfg.root, "benchmark", "out", "spans.jsonl"))
}

// daemonParams returns the summary parameters the workload's daemons
// run with.
func (w *workload) daemonParams() (eps, delta float64) {
	if w.summary == "sample" {
		return w.eps, w.delta
	}
	return defaultEps, defaultDelta
}

func (w *workload) factory() engine.Factory {
	eps, delta := w.daemonParams()
	return func(shard int) (core.Summary, error) {
		return engine.StandardSummary(w.summary, w.d, alphabet, eps, delta, defaultAlpha, defaultSeed, shard)
	}
}

// replayBatches is how many of the run's first writer requests (each
// a group of pool bodies) the replay pushes through each layer: all of
// them for the exact summary, whose query cost depends on every
// retained row; a fixed prefix otherwise.
func (r *runner) replayBatches() int {
	sent := r.sent / r.in.group
	switch r.w.summary {
	case "exact":
		return sent
	case "net":
		return min(sent, 32) // ~85 µs a row
	}
	return min(sent, 64)
}

// tracedLog puts a span around each WAL append the in-process engine
// makes, so store.append nests inside engine.observe as it does in the
// daemon.
type tracedLog struct {
	st     *store.Store
	tr     *tracer
	parent int64 // the open engine.observe span; 0 records nothing
	op     int64
}

func (l *tracedLog) AppendBatch(b *words.Batch) error {
	if l.parent == 0 {
		return l.st.AppendBatch(b)
	}
	id := l.tr.begin("store.append", l.parent, l.op)
	defer l.tr.end(id)
	return l.st.AppendBatch(b)
}
func (l *tracedLog) AppendSummary(blob []byte) error { return l.st.AppendSummary(blob) }
func (l *tracedLog) LSN() uint64                     { return l.st.LSN() }

// replay is one pass of the layer measurements: the run it follows,
// the root span every measurement hangs under, and the inputs it
// pushes through the layers.
type replay struct {
	lay  *layers
	r    *runner
	root int64
	// batches are the run's first writer requests as flat batches; slices
	// are what the first owning node logs and observes of each (the
	// whole batch on a single daemon, its ring partition in a cluster).
	batches, slices []*words.Batch
	// requests is the query stream the replay repeats.
	requests []request
}

// measure runs the replay against the live topology of r and through
// the in-process layers. The answers of the run have been verified by
// now, so the extra rows it posts disturb nothing that is checked.
func (lay *layers) measure(ctx context.Context, r *runner) error {
	root := r.tr.begin("replay", 0, 0)
	defer r.tr.end(root)
	rp := &replay{lay: lay, r: r, root: root, requests: r.in.requests}
	if r.in.dashboard != nil {
		rp.requests = []request{*r.in.dashboard}
	}
	g := r.in.group
	for i := 0; i < r.replayBatches(); i++ {
		rp.batches = append(rp.batches, r.in.batch(i*g, g))
	}
	rp.slices = rp.batches
	rp.queriesOverHTTP()
	if r.w.cluster {
		if err := rp.clusterOverHTTP(ctx); err != nil {
			return err
		}
	} else {
		for i := 0; i < min(len(rp.batches), 64); i++ {
			r.post("direct.observe", root, i*g, g)
		}
	}
	// In process, bottom up: the key pipeline, the bare summary, the
	// store, then the engine around them, then the wire.
	for _, step := range []func() error{rp.keyPipeline, rp.summaries, rp.store, rp.engine, rp.wire} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// timed puts a span named name around f.
func (rp *replay) timed(name string, op int, f func()) {
	id := rp.r.tr.begin(name, rp.root, int64(op))
	f()
	rp.r.tr.end(id)
}

// total is the summed length of every span named name, in ms.
func (rp *replay) total(name string) float64 {
	sum := 0.0
	for _, d := range rp.r.tr.durations(name) {
		sum += d
	}
	return sum
}

// perRow turns the total of a span name into ns per replayed row.
func (rp *replay) perRow(name string) float64 {
	return rp.total(name) * 1e6 / float64(len(rp.batches)*rp.r.in.group*batchRows)
}

func (rp *replay) typical(name string) float64 { return median(rp.r.tr.durations(name)) } // ms

// queriesOverHTTP repeats the head of the query stream against the
// rows the run ended with (the exact summary's answers cost in
// proportion to them), before anything else adds rows. One more batch
// makes a new epoch first, so that the result cache is empty again.
func (rp *replay) queriesOverHTTP() {
	r, root := rp.r, rp.root
	ask := func(span string, p *proc, i int) {
		time.Sleep(queryGap)
		r.call(span, root, int64(i), http.MethodPost, p.url()+"/v1/query", rp.requests[i%len(rp.requests)].body)
	}
	nq := rp.queryCount()
	r.post("front.observe", root, 0, 1)
	if !r.w.cluster {
		for i := 0; i < nq; i++ {
			if r.w.reader {
				r.post("direct.post", root, i, 1) // the dashboard reads beside a writer: every read meets new rows
			}
			ask("direct.query", r.topo.front, i)
		}
		return
	}
	// A few pull rounds carry the batch to the aggregator; one half of
	// the stream then goes through the router and the other straight at
	// the aggregator, so that neither meets the other's cached answers.
	time.Sleep(3 * pullEvery)
	for i := 0; i < nq; i++ {
		ask("front.query", r.topo.front, i)
	}
	for i := nq; i < 2*nq; i++ {
		ask("direct.query", r.topo.reads, i)
	}
}

// queryCount is how many requests each query measurement repeats.
func (rp *replay) queryCount() int {
	n := min(len(rp.requests), 64)
	if rp.r.w.cluster {
		n /= 2 // queriesOverHTTP splits the stream in two
	}
	return n
}

// clusterOverHTTP sends the same batches through the router and, as
// their ring partitions, straight at both nodes at once — what the
// router adds is the difference — then times anti-entropy rounds and
// reads the router's queue counters.
func (rp *replay) clusterOverHTTP(ctx context.Context) error {
	r, root, v := rp.r, rp.root, rp.lay.values
	var urls []string
	for _, p := range r.topo.nodes {
		urls = append(urls, p.url())
	}
	ring, err := cluster.NewRing(urls)
	if err != nil {
		return err
	}
	rp.slices = make([]*words.Batch, len(rp.batches))
	for i, b := range rp.batches {
		var parts map[string]*words.Batch
		rp.timed("cluster.partition", i, func() { parts = ring.PartitionBatch(b) })
		rp.slices[i] = b
		if part := parts[urls[0]]; part != nil {
			rp.slices[i] = part
		}
		if i >= 64 {
			continue
		}
		bodies := map[string][]byte{}
		for url, part := range parts {
			bodies[url] = encodeBatch(part)
		}
		r.post("front.observe", root, i, 1) // a cluster's writer sends single pool bodies
		rp.timed("direct.observe", i, func() {
			var wg sync.WaitGroup
			for url, body := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.call("direct.post", root, int64(i), http.MethodPost, url+"/v1/observe", body)
				}()
			}
			wg.Wait()
		})
	}
	v["cluster.partition_ns_per_row"] = rp.perRow("cluster.partition")
	if rs, ok := r.routerStats(); ok {
		for _, q := range rs.Queues {
			v["router.queued_rows"] += float64(q.Enqueued)
			v["router.shed_rows"] += float64(q.Shed)
		}
	}
	return rp.pulls(ctx)
}

// pulls times anti-entropy rounds against the live first ingest node:
// a round after new rows transfers and applies the blob, the round
// right after it is a 304 probe.
func (rp *replay) pulls(ctx context.Context) error {
	r, v := rp.r, rp.lay.values
	node := r.topo.nodes[0]
	sink, err := engine.NewSharded(r.w.factory(), engine.Config{Shards: r.w.shards})
	if err != nil {
		return err
	}
	defer sink.Close()
	blobBytes := 0
	puller, err := cluster.NewPuller([]string{node.url()}, cluster.ApplierFunc(func(source string, blob []byte) error {
		blobBytes = len(blob)
		sum, err := core.UnmarshalSummary(blob)
		if err != nil {
			return err
		}
		return sink.AbsorbSource(source, sum)
	}), 10*time.Second)
	if err != nil {
		return err
	}
	for i := 0; i < 7; i++ {
		r.call("direct.post", rp.root, int64(i), http.MethodPost, node.url()+"/v1/observe", r.in.bodies[i%len(r.in.bodies)])
		for _, name := range []string{"cluster.pull_changed", "cluster.pull_304"} {
			rp.timed(name, i, func() { err = puller.PullOnce(ctx) })
			if err != nil {
				return err
			}
		}
	}
	v["cluster.pull_changed_ms"] = rp.typical("cluster.pull_changed")
	v["cluster.pull_304_us"] = rp.typical("cluster.pull_304") * 1e3
	v["cluster.pull_blob_bytes"] = float64(blobBytes)
	return nil
}

// keyPipeline times the three stages under a net summary's update, on
// one small and one large member of the net: the two ends the key
// width ranges over.
func (rp *replay) keyPipeline() error {
	w, v := rp.r.w, rp.lay.values
	if w.summary != "net" {
		return nil
	}
	net, err := anet.NewNet(w.d, defaultAlpha)
	if err != nil {
		return err
	}
	members, err := net.MemberCount()
	if err != nil {
		return err
	}
	v["anet.members"] = float64(members)
	sets := []words.ColumnSet{words.MustColumnSet(w.d, 0, 1), words.MustColumnSet(w.d, 0, 1, 2, 3, 4, 5)}
	kmv := sketch.KMVForEpsilon(defaultEps, defaultSeed)
	var arena []byte
	var prints []uint64
	for i, b := range rp.batches {
		for _, c := range sets {
			rp.timed("words.batch_keys", i, func() { arena = words.AppendBatchKeys(arena[:0], b, c) })
			rp.timed("hashing.fingerprints", i, func() {
				prints = hashing.AppendFingerprints64(prints[:0], arena, b.Len(), 2*c.Len())
			})
			rp.timed("sketch.addbatch", i, func() { kmv.AddBatch(prints) })
		}
	}
	perKey := 1 / float64(len(sets))
	v["words.batch_keys_ns_per_row"] = rp.perRow("words.batch_keys") * perKey
	v["hashing.fingerprint_ns_per_key"] = rp.perRow("hashing.fingerprints") * perKey
	v["sketch.addbatch_ns_per_key"] = rp.perRow("sketch.addbatch") * perKey
	return nil
}

// summaries times the bare summary (and, for a sample workload, the
// bare sampler under it), then the engine's own ingest cost on top:
// one shard and no log, so that nothing runs in parallel and the bare
// summary's time subtracts cleanly.
func (rp *replay) summaries() error {
	w, v := rp.r.w, rp.lay.values
	bare, err := w.factory()(0)
	if err != nil {
		return err
	}
	for i, b := range rp.batches {
		rp.timed("core.observe", i, func() { core.ObserveAll(bare, b) })
	}
	v["core.observe_ns_per_row"] = rp.perRow("core.observe")
	if w.summary == "sample" {
		sampler := sample.NewWithReplacement(sample.SizeForError(w.eps, w.delta), defaultSeed)
		for i, b := range rp.batches {
			rp.timed("sample.observe", i, func() { sampler.ObserveBatch(b) })
		}
		v["sample.observe_ns_per_row"] = rp.perRow("sample.observe")
	}
	solo, err := engine.NewSharded(w.factory(), engine.Config{Shards: 1})
	if err != nil {
		return err
	}
	defer solo.Close()
	rp.timed("engine.ingest", 0, func() {
		for _, b := range rp.batches {
			solo.ObserveBatch(b)
		}
		_, err = solo.Flush()
	})
	v["engine.ingest_self_ns_per_row"] = rp.perRow("engine.ingest") - rp.perRow("core.observe")
	return err
}

// openStore opens a scratch WAL directory for the replay.
func (rp *replay) openStore(name string, policy store.Policy) (*store.Store, error) {
	return store.Open(store.Options{Dir: filepath.Join(rp.r.l.work, name), Dim: rp.r.w.d, Alphabet: alphabet, Fsync: policy})
}

// store times the WAL alone on the rows the first node logs: appends
// without fsync, then the fsync each append would have waited for.
func (rp *replay) store() error {
	if !rp.r.w.durable {
		return nil
	}
	st, err := rp.openStore("replay-store.data", store.FsyncNever)
	if err != nil {
		return err
	}
	defer st.Close()
	logged := 0
	for i, b := range rp.slices {
		rp.timed("store.append_nosync", i, func() { err = st.AppendBatch(b) })
		if err != nil {
			return err
		}
		rp.timed("store.sync", i, func() { err = st.Sync() })
		if err != nil {
			return err
		}
		logged += b.Len()
	}
	v := rp.lay.values
	v["store.append_ns_per_row"] = rp.total("store.append_nosync") * 1e6 / float64(logged)
	v["store.fsync_us"] = rp.typical("store.sync") * 1e3
	v["store.log_bytes_per_row"] = float64(st.Stats().LogBytes) / float64(logged)
	return nil
}

// engine replays through the engine as the daemon configures it —
// its shard count, behind a WAL with the daemon's fsync policy when the
// workload has one — for the in-process cost of an ack, a checkpoint,
// an epoch rebuild and a query.
func (rp *replay) engine() error {
	w, v, tr := rp.r.w, rp.lay.values, rp.r.tr
	ecfg := engine.Config{Shards: w.shards}
	var wal *tracedLog
	if w.durable {
		policy := store.FsyncInterval
		if !w.cluster {
			policy = store.FsyncAlways
		}
		st, err := rp.openStore("replay-engine.data", policy)
		if err != nil {
			return err
		}
		defer st.Close()
		wal = &tracedLog{st: st, tr: tr}
		ecfg.Log = wal
	}
	eng, err := engine.NewSharded(w.factory(), ecfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	for i, b := range rp.slices {
		id := tr.begin("engine.observe", rp.root, int64(i))
		if wal != nil {
			wal.parent, wal.op = id, int64(i)
		}
		err := eng.ObserveBatchDurable(b)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	if wal != nil {
		wal.parent = 0 // the appends below are not part of a timed observe
		cs, err := eng.CheckpointState()
		if err != nil {
			return err
		}
		rp.timed("store.checkpoint", 0, func() {
			err = wal.st.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs), Shards: cs.Shards})
		})
		if err != nil {
			return err
		}
		v["store.checkpoint_ms"] = rp.total("store.checkpoint")
	}
	for i := 0; i < 9; i++ {
		// One pool body, as a visibility probe posts: a whole group each
		// time would grow an exact summary well past the run's rows.
		fresh := rp.slices[i%len(rp.slices)]
		if rp.r.in.group > 1 {
			fresh = rp.r.in.batch(i, 1)
		}
		eng.ObserveBatch(fresh)
		rp.timed("engine.epoch_rebuild", i, func() { _, _, err = eng.SnapshotInfo() })
		if err != nil {
			return err
		}
	}
	v["engine.epoch_rebuild_ms"] = rp.typical("engine.epoch_rebuild")

	snap, err := eng.Flush()
	if err != nil {
		return err
	}
	reg := snap.(*registry.Registry) // the engine's epochs are registries
	for i := 0; i < rp.queryCount(); i++ {
		req := rp.requests[i%len(rp.requests)]
		qs := make([]engine.Query, len(req.queries))
		for j, q := range req.queries {
			qs[j] = engineQuery(w.d, q)
		}
		if w.reader {
			eng.ObserveBatch(rp.slices[i%len(rp.slices)]) // as over HTTP: every dashboard read meets new rows
		}
		rp.timed("engine.query", i, func() { eng.QueryBatchInfo(qs) })
		rp.timed("registry.plan", i, func() {
			for _, q := range qs {
				reg.Plan(q.Cols)
			}
		})
		rp.timed("core.evaluate", i, func() {
			for _, q := range qs {
				evaluate(reg.Full(), q)
			}
		})
	}
	v["core.evaluate_ms_per_query"] = rp.typical("core.evaluate")
	v["registry.plan_ns_per_query"] = rp.typical("registry.plan") * 1e6
	self := rp.typical("engine.query") - rp.typical("core.evaluate") - rp.typical("registry.plan")
	if w.reader {
		self -= v["engine.epoch_rebuild_ms"]
	}
	v["engine.query_self_us"] = self * 1e3
	return nil
}

// wire decodes the summary the run ended with, encodes it again and
// merges it into a fresh one.
func (rp *replay) wire() error {
	w, v := rp.r.w, rp.lay.values
	fresh, err := w.factory()(0)
	if err != nil {
		return err
	}
	var final core.Summary
	for i := 0; i < 5; i++ {
		rp.timed("core.unmarshal", i, func() { final, err = core.UnmarshalSummary(rp.r.summary) })
		if err != nil {
			return fmt.Errorf("decoding the run's final summary: %w", err)
		}
		rp.timed("core.marshal", i, func() { _, err = core.MarshalSummary(final) })
		if err != nil {
			return err
		}
	}
	rp.timed("core.merge", 0, func() { err = fresh.(core.Mergeable).Merge(final) })
	v["core.unmarshal_ms"] = rp.typical("core.unmarshal")
	v["core.marshal_ms"] = rp.typical("core.marshal")
	v["core.merge_ms"] = rp.typical("core.merge")
	return err
}

// recovery times store.Recover over a copy of a killed daemon's data
// directory, replaying into a fresh engine as the daemon's boot does.
// crash calls it between the kill and the respawn.
func (lay *layers) recovery(r *runner, p *proc) error {
	dir := p.dataDir
	if dir == "" || lay.values["store.recover_ms_per_mrow"] != 0 {
		return nil // in memory, or a second node after the first was measured
	}
	copyDir := filepath.Join(r.l.work, "recover-copy.data")
	if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: copyDir, Dim: r.w.d, Alphabet: alphabet, Fsync: store.FsyncNever})
	if err != nil {
		return err
	}
	defer st.Close()
	eng, err := engine.NewSharded(r.w.factory(), engine.Config{Shards: r.w.shards})
	if err != nil {
		return err
	}
	defer eng.Close()
	id := r.tr.begin("store.recover", 0, 0)
	info, err := st.Recover(func(ck *store.Checkpoint) error {
		return eng.Restore(engine.CheckpointState{Next: ck.Next, Rows: ck.Rows, Absorbs: int(ck.Absorbs), Shards: ck.Shards})
	}, func(rec store.Record) error {
		if rec.Kind != store.RecordBatch {
			return fmt.Errorf("unexpected WAL record kind %v", rec.Kind)
		}
		return eng.ReplayBatch(words.BatchOf(r.w.d, rec.Rows))
	})
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("recovering a copy of %s: %w", dir, err)
	}
	if info.Rows > 0 {
		lay.values["store.recover_ms_per_mrow"] = median(r.tr.durations("store.recover")) / (float64(info.Rows) / 1e6)
	}
	return nil
}

// settle derives the self times that are differences of medians, and
// the two budgets: the layers on the path of one ack and of one query,
// their sum, the end-to-end median of the traced run, and the share of
// it the sum leaves unexplained.
func (lay *layers) settle(w *workload, res *runResult) {
	v := lay.values
	// The ack path is settled in means and the query path in medians.
	// Which shard's chunk arena frees next makes consecutive acks of a
	// slow summary alternate between short and long, and medians of
	// such a sequence neither repeat nor add up; a query's time has one
	// mode and a few outliers (the first query of a kind builds tables).
	tr, avg := lay.spanUS, lay.meanUS
	v["projfreqd.observe_self_us"] = avg["direct.observe"] - avg["engine.observe"]
	v["projfreqd.query_self_us"] = tr["direct.query"] - tr["engine.query"]
	if w.cluster {
		v["router.observe_self_us"] = avg["front.observe"] - avg["direct.observe"]
		v["router.query_self_us"] = tr["front.query"] - tr["direct.query"]
	}
	path := func(name, against string, e2e float64, parts ...budgetRow) {
		sum := 0.0
		for _, p := range parts {
			lay.budget = append(lay.budget, budgetRow{name, p.Layer, p.US})
			sum += p.US
		}
		residual := 0.0
		if e2e > 0 {
			residual = (e2e - sum) / e2e
		}
		lay.budget = append(lay.budget,
			budgetRow{name, "sum", sum}, budgetRow{name, against, e2e}, budgetRow{name, "residual_ratio", residual})
		if name == w.budgetPath {
			v["budget.residual_ratio"] = residual
		}
	}
	path("ack", "end_to_end_mean", lay.ackMeanUS,
		budgetRow{Layer: "router", US: v["router.observe_self_us"]},
		budgetRow{Layer: "projfreqd (http+json)", US: v["projfreqd.observe_self_us"]},
		budgetRow{Layer: "engine (route, wait for a free chunk)", US: avg["engine.observe.self"]},
		budgetRow{Layer: "store (append+fsync as configured)", US: avg["store.append"]},
	)
	rebuild := 0.0
	if w.reader {
		rebuild = v["engine.epoch_rebuild_ms"] * 1e3
	}
	path("query", "end_to_end_p50", res.Metrics["query_p50_ms"].Value*1e3,
		budgetRow{Layer: "router", US: v["router.query_self_us"]},
		budgetRow{Layer: "projfreqd (http+json)", US: v["projfreqd.query_self_us"]},
		budgetRow{Layer: "engine (cache, fan-out)", US: v["engine.query_self_us"]},
		budgetRow{Layer: "engine (epoch rebuild before the read)", US: rebuild},
		budgetRow{Layer: "registry (plan)", US: v["registry.plan_ns_per_query"] / 1e3},
		budgetRow{Layer: "core (evaluate)", US: v["core.evaluate_ms_per_query"] * 1e3},
	)
}

// stash fills spanUS from the finished trace, for settle.
func (lay *layers) stash(tr *tracer) {
	lay.spanUS, lay.meanUS = map[string]float64{}, map[string]float64{}
	names := map[string]bool{}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	for _, s := range spans {
		names[s.Name] = true
	}
	for name := range names {
		ds := tr.durations(name)
		lay.spanUS[name] = median(ds) * 1e3
		lay.meanUS[name] = mean(ds) * 1e3
	}
	self := selfTimes(spans)
	var own []float64
	for _, s := range spans {
		if s.Name == "engine.observe" {
			own = append(own, float64(self[s.ID])/1e3)
		}
	}
	lay.meanUS["engine.observe.self"] = mean(own)
}

func engineQuery(d int, q querySpec) engine.Query {
	eq := engine.Query{Cols: words.MustColumnSet(d, q.Cols...), P: q.P, Phi: q.Phi}
	switch q.Kind {
	case "f0":
		eq.Kind = engine.KindF0
	case "fp":
		eq.Kind = engine.KindFp
	case "freq":
		eq.Kind, eq.Pattern = engine.KindFrequency, words.Word(q.Pattern)
	case "hh":
		eq.Kind = engine.KindHeavyHitters
	}
	return eq
}

// evaluate answers q on a bare summary, as the engine's planner does
// once it has chosen one. The answer is dropped: only the time counts.
func evaluate(sum core.Summary, q engine.Query) {
	switch q.Kind {
	case engine.KindF0:
		if s, ok := sum.(core.F0Querier); ok {
			_, _ = s.F0(q.Cols)
		}
	case engine.KindFp:
		if s, ok := sum.(core.FpQuerier); ok {
			_, _ = s.Fp(q.Cols, q.P)
		}
	case engine.KindFrequency:
		if s, ok := sum.(core.FrequencyQuerier); ok {
			_, _ = s.Frequency(q.Cols, q.Pattern)
		}
	case engine.KindHeavyHitters:
		if s, ok := sum.(core.HeavyHitterQuerier); ok {
			_, _ = s.HeavyHitters(q.Cols, q.P, q.Phi)
		}
	}
}

// encodeBatch renders a batch as an /v1/observe body.
func encodeBatch(b *words.Batch) []byte {
	rows := make([][]uint16, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	body, err := json.Marshal(struct {
		Rows [][]uint16 `json:"rows"`
	}{rows})
	if err != nil {
		panic(err) // slices of numbers always marshal
	}
	return body
}

// printBudget prints the budget tables of a traced run and what to
// expect of them.
func printBudget(w io.Writer, res *runResult) {
	if len(res.Budget) == 0 {
		return
	}
	fmt.Fprintf(w, "  budget (us per request; a residual beyond +-0.2 is flagged, not failed):\n")
	for _, row := range res.Budget {
		flag := ""
		if row.Layer == "residual_ratio" && (row.US > 0.2 || row.US < -0.2) {
			flag = "  <-- flagged"
		}
		fmt.Fprintf(w, "    %-6s %-42s %14.4f%s\n", row.Path, row.Layer, row.US, flag)
	}
	fmt.Fprintf(w, "  expect: one closed-loop client, so a faster layer saves at most its own row above;\n"+
		"  net-ingest cannot move for a router, WAL or codec change, cluster-router cannot move for a\n"+
		"  sketch-kernel change; in durable-mixed the writer's log lock and the reader's quiesce barrier\n"+
		"  contend, so query latency can rise when the ingest rate does; in cluster-router visible_p50_ms\n"+
		"  is floored at half the pull interval and rises with core.marshal_ms + core.merge_ms.\n")
}
