package main

import (
	"fmt"
	"strings"
	"time"
)

// workload fixes one topology, its daemon flags and its phases. The
// counts are the sizes at -seconds 20 (nominalSeconds), calibrated so
// that the timed phases of a run last about twenty seconds on the
// 2-core sandbox the seed receipts were taken on; sizesFor scales all
// of them by one factor.
type workload struct {
	name string
	why  string

	d       int
	summary string
	// shards is the daemons' -shards. Two everywhere but on net-ingest,
	// the one workload whose shard workers are busy all the time: the
	// sandbox's two CPUs are hyperthreads of one core, two threads that
	// compute at once run at 0.5 to 0.65 of one thread's speed each,
	// depending on what else the host is doing, and a two-shard net
	// daemon's rate moved by half its median between adjacent runs while
	// the one-shard daemon's moved by a tenth.
	shards int
	// extra holds the summary and durability flags beyond the shape
	// every projfreqd of the workload shares.
	extra []string
	// durable gives each ingest daemon a -data-dir; cluster puts two of
	// them behind projfreq-router with one pulling aggregator.
	durable bool
	cluster bool
	// eps and delta are the sample summary's guarantee, which is what
	// its answers are checked against.
	eps, delta float64

	// preload batches are sent during set-up, ingest batches in the
	// timed phase; querySets column sets are then each asked once per
	// kind, one query per request.
	preload, ingest, querySets int
	kinds                      []string
	// group, when above 1, makes the writer send that many pool bodies
	// per request (preload and ingest; a visibility probe stays one pool
	// body). An in-memory exact daemon acks 256 rows in a quarter of a
	// millisecond, most of it the two processes waking each other across
	// cores, which on a shared host differs from run to run by more than
	// any bound; a bulk load of 4096 rows per request is the daemon's
	// decode and append, and repeats.
	group int
	// reader posts a fixed dashboard batch beside the writer, open
	// loop; its answers are the workload's query latencies.
	reader bool
	// probes, when positive, replaces the concurrent visibility poller
	// by that many read-your-write probes after the ingest phase (see
	// runner.probeVisibility for why the in-memory daemons need it).
	probes int
	// setups is how many times a run sets the topology up (set-up time
	// is the median over them); rounds is how many of them, the last
	// ones, are followed by the ingest phase (0 means the last one only).
	// A phase too short to time once is timed after every set-up: its
	// acks pool and its rate is the median over the rounds.
	setups, rounds int
	// blocks, when above 1, cuts the ingest phase and the visibility
	// probes of the last set-up into that many alternating blocks (the
	// rate is the median over the blocks). On a host whose speed moves
	// from second to second, 128 probes in one three-second window tell
	// mostly which window they got.
	blocks int
	// crashes is how often each owning node is killed and recovered.
	crashes int
	// checkpointAt lists the shares of the ingest phase after which the
	// benchmark asks the daemon for a checkpoint.
	checkpointAt []float64
	// budgetPath says which request the layer budget explains.
	budgetPath string
}

const (
	// pollEvery is the cadence of the visibility poller; readEvery that
	// of the open-loop dashboard reader; pullEvery the aggregator's
	// anti-entropy interval.
	pollEvery = 10 * time.Millisecond
	readEvery = 20 * time.Millisecond
	pullEvery = 100 * time.Millisecond
	// queryGap separates the requests of the post-ingest query phase.
	queryGap = time.Millisecond
)

var sampleFlags = []string{"-eps", "0.2", "-delta", "0.1"}

var workloads = []*workload{
	{
		name: "exact-coldquery",
		why:  "C revealed after the data on the retain-everything baseline: query evaluation does the work, the result cache cannot help",
		d:    16, summary: "exact", shards: 2,
		preload: 128, ingest: 640, querySets: 150, probes: 160, group: 16,
		setups: 40, rounds: 40, crashes: 100,
		kinds:      []string{"f0", "fp", "freq", "hh"},
		budgetPath: "query",
	},
	{
		name: "net-ingest",
		why:  "the alpha-net summary: sketch updates are nearly all of an ack, so a codec, WAL or router change must not move it",
		d:    8, summary: "net", shards: 1,
		ingest: 288, querySets: 250, probes: 128, blocks: 8, setups: 25, crashes: 100,
		kinds:      []string{"f0", "fp"},
		budgetPath: "ack",
	},
	{
		name: "durable-mixed",
		why:  "fsync-always WAL with a dashboard reader beside the writer, two checkpoints, then SIGKILL and recovery of the log tail",
		d:    16, summary: "sample", shards: 2, eps: 0.2, delta: 0.1,
		extra:   append(append([]string{}, sampleFlags...), "-fsync", "always", "-checkpoint-rows", "0", "-checkpoint-interval", "0"),
		durable: true,
		ingest:  14336, setups: 25, crashes: 5,
		reader: true, checkpointAt: []float64{1.0 / 6, 1.0 / 3},
		budgetPath: "ack",
	},
	{
		name: "cluster-router",
		why:  "the deployed topology: router JSON re-marshal, ring partition, two durable ingest nodes, aggregator pulls and epoch merges",
		d:    16, summary: "sample", shards: 2, eps: 0.2, delta: 0.1,
		extra:   sampleFlags,
		durable: true, cluster: true,
		ingest: 5120, querySets: 150, setups: 9, crashes: 5,
		kinds:      []string{"freq", "freq", "freq", "hh"},
		budgetPath: "ack",
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// nominalSeconds is the -seconds the counts above are the sizes at.
const nominalSeconds = 20

// sizes are a workload's counts at one scale.
type sizes struct {
	preload, ingest, querySets, probes int
	setups, rounds, blocks, crashes    int
}

// sizesFor scales every count of w by the one common factor. Ingest
// keeps at least 16 batches and queries at least 4 column sets, so
// that the tiny scales the self-test uses still produce every metric;
// preload and ingest stay whole groups.
func (w *workload) sizesFor(scale float64) sizes {
	at := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*scale+0.5), floor)
	}
	groups := func(n int) int {
		g := max(w.group, 1)
		return (n + g - 1) / g * g
	}
	return sizes{
		preload: groups(at(w.preload, 4)), ingest: groups(at(w.ingest, 16)),
		querySets: at(w.querySets, 4), probes: at(w.probes, 4),
		setups: at(w.setups, 2), rounds: at(w.rounds, 1), blocks: max(at(w.blocks, 1), 1), crashes: at(w.crashes, 1),
	}
}

// shape returns the projfreqd flags every daemon of the workload
// shares (summaries must be merge-compatible across the tiers).
func (w *workload) shape() []string {
	return []string{"-summary", w.summary, "-d", fmt.Sprint(w.d), "-q", fmt.Sprint(alphabet), "-shards", fmt.Sprint(w.shards)}
}
