// Package clustertest is a reusable harness for integration tests of
// the two-tier projfreq cluster. It runs the cluster two ways:
//
//   - As processes (StartCluster, NewNode): it builds the real projfreqd
//     and projfreq-router binaries once per test process, spawns them
//     with scratch data directories, and exposes the membership to the
//     test so it can SIGKILL, restart, and interrogate individual
//     nodes. TestClusterKillAndRecover and TestClusterChaosConvergence
//     run this way — a true SIGKILL needs a process.
//   - In process (TestInProcessClusterConverges): node.New and
//     router.New handlers on loopback listeners, every ingest edge
//     behind the same fault Proxy — the same convergence property at
//     unit-test speed, with Close standing in for the kill.
//
// Node logs go to one file per process lifetime. By default they land
// in the test's temp directory; set CLUSTERTEST_LOGDIR to a path to
// keep them after the run (CI uploads that directory as an artifact
// when the cluster tests fail).
package clustertest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/router"
)

// binDir holds the built binaries for this test process; see
// EnsureBinaries.
var (
	binOnce sync.Once
	binPath string
	binErr  error
)

// EnsureBinaries builds projfreqd and projfreq-router (once per test
// process) and returns the directory holding them. Building the real
// binaries — rather than re-exec'ing the test binary — keeps the
// harness in a normal test package and exercises exactly the
// artifacts an operator deploys.
func EnsureBinaries(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "clustertest-bin-")
		if err != nil {
			binErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir,
			"repro/cmd/projfreqd", "repro/cmd/projfreq-router")
		out, err := cmd.CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("building cluster binaries: %v\n%s", err, out)
			return
		}
		binPath = dir
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// CleanupBinaries removes the built binaries; call it from TestMain
// after m.Run.
func CleanupBinaries() {
	if binPath != "" {
		os.RemoveAll(binPath)
	}
}

// LogDir resolves where node logs go: CLUSTERTEST_LOGDIR if set
// (kept after the run — what CI uploads on failure), the test's temp
// directory otherwise.
func LogDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("CLUSTERTEST_LOGDIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// Node is one spawned cluster process (daemon or router).
type Node struct {
	Name string
	Addr string // host:port the process listens on; "" until first start
	Args []string
	Bin  string // binary path

	logDir string
	id     int64 // process-wide unique, so log/port files never collide across tests or -count runs
	starts int
	cmd    *exec.Cmd
	waitC  chan error
}

// nodeSeq hands out Node.id values.
var nodeSeq atomic.Int64

// URL returns the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// NewNode prepares (but does not start) a process. args must not
// include -addr or -portfile; the harness owns the address. The first
// Start binds an ephemeral port (listener-first, announced through a
// portfile, so there is no reserve-then-rebind race); restarts pin the
// same address so the rest of the cluster keeps its configuration.
func NewNode(t *testing.T, name, bin string, args ...string) *Node {
	t.Helper()
	return &Node{
		Name:   name,
		Args:   args,
		Bin:    bin,
		id:     nodeSeq.Add(1),
		logDir: LogDir(t),
	}
}

// Start launches the process and waits until its HTTP face answers.
// Each start (including restarts) gets its own log file, suffixed
// with the start ordinal, so a kill-and-restart test leaves both
// lifetimes' logs for inspection.
func (n *Node) Start(t *testing.T) {
	t.Helper()
	if n.cmd != nil {
		t.Fatalf("node %s already running", n.Name)
	}
	n.starts++
	logPath := filepath.Join(n.logDir, fmt.Sprintf("%s-%d.run%d.log", n.Name, n.id, n.starts))
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var args []string
	var portfile string
	if n.Addr == "" {
		// First start: the process binds :0 itself and writes the
		// kernel-chosen address to a portfile once its listener is live.
		// The port is never "reserved then released", so another process
		// cannot steal it between reservation and bind.
		portfile = filepath.Join(n.logDir, fmt.Sprintf("%s-%d.run%d.port", n.Name, n.id, n.starts))
		// A stale portfile (a prior run in the same CLUSTERTEST_LOGDIR)
		// must not be mistaken for this process's announcement.
		os.Remove(portfile)
		args = append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile}, n.Args...)
	} else {
		args = append([]string{"-addr", n.Addr}, n.Args...)
	}
	cmd := exec.Command(n.Bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		t.Fatalf("starting %s: %v", n.Name, err)
	}
	waitC := make(chan error, 1)
	go func() {
		waitC <- cmd.Wait()
		logFile.Close()
	}()
	n.cmd = cmd
	n.waitC = waitC
	t.Cleanup(func() { n.Stop() })
	if portfile != "" {
		n.Addr = n.awaitPortfile(t, portfile)
	}
	n.WaitReady(t)
}

// awaitPortfile polls for the process's announced listen address.
func (n *Node) awaitPortfile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if blob, err := os.ReadFile(path); err == nil && len(blob) > 0 {
			return strings.TrimSpace(string(blob))
		}
		select {
		case err := <-n.waitC:
			n.waitC <- err
			t.Fatalf("node %s exited before announcing its port: %v (log: %s)", n.Name, err, n.logDir)
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("node %s never wrote its portfile %s", n.Name, path)
	return ""
}

// WaitReady polls the node's /v1/stats until it answers 200.
func (n *Node) WaitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.URL() + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-n.waitC:
			n.waitC <- err
			t.Fatalf("node %s exited while starting: %v (log: %s)", n.Name, err, n.logDir)
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("node %s not ready on %s after 15s (log: %s)", n.Name, n.Addr, n.logDir)
}

// Kill sends SIGKILL — the crash case — and reaps the process.
func (n *Node) Kill(t *testing.T) {
	t.Helper()
	if n.cmd == nil {
		t.Fatalf("node %s not running", n.Name)
	}
	if err := n.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing %s: %v", n.Name, err)
	}
	<-n.waitC
	n.cmd = nil
	n.waitC = nil
}

// Term sends SIGTERM — an operator's shutdown — and returns how long
// the process took to exit, failing after timeout.
func (n *Node) Term(t *testing.T, timeout time.Duration) time.Duration {
	t.Helper()
	if n.cmd == nil {
		t.Fatalf("node %s not running", n.Name)
	}
	start := time.Now()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("terminating %s: %v", n.Name, err)
	}
	select {
	case <-n.waitC:
	case <-time.After(timeout):
		t.Fatalf("node %s still running %v after SIGTERM (log: %s)", n.Name, timeout, n.logDir)
	}
	n.cmd = nil
	n.waitC = nil
	return time.Since(start)
}

// Stop terminates the process if it is still running (cleanup path;
// errors ignored).
func (n *Node) Stop() {
	if n.cmd == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGKILL)
	<-n.waitC
	n.cmd = nil
	n.waitC = nil
}

// Restart starts the node again on the same address with the same
// arguments — the recovery case.
func (n *Node) Restart(t *testing.T) {
	t.Helper()
	if n.cmd != nil {
		t.Fatalf("node %s still running", n.Name)
	}
	n.Start(t)
}

// Cluster is a running two-tier topology.
type Cluster struct {
	Ingest []*Node
	// Proxies front the ingest nodes one-to-one when Config.Faults is
	// set; the router and every aggregator then address the ingest tier
	// through them, so a test can partition any ingest edge.
	Proxies     []*Proxy
	Aggregators []*Node
	Aggregator  *Node // Aggregators[0]
	Router      *Node
}

// Config sizes a cluster. Dim/Alphabet/Seed configure every daemon
// identically (summaries must be merge-compatible across the tiers).
type Config struct {
	IngestNodes  int
	Aggregators  int // aggregator count; default 1
	Dim          int
	Alphabet     int
	Seed         uint64
	Summary      string        // daemon -summary; default "exact"
	PullInterval time.Duration // aggregator -pull-interval (longest hold); default 100ms
	// Faults fronts every ingest node with a fault proxy; the ring's
	// node set becomes the proxy URLs.
	Faults bool
	// RouterArgs are appended to the router's flags (e.g. a fast
	// "-retry-base"/"-retry-max" redelivery cadence).
	RouterArgs []string
}

// StartCluster builds the binaries and brings up ingest nodes (each
// durable, fsync=always, in its own scratch dir), aggregators pulling
// from all of them, and a router fronting both tiers.
func StartCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	bin := EnsureBinaries(t)
	if cfg.Summary == "" {
		cfg.Summary = "exact"
	}
	if cfg.PullInterval == 0 {
		cfg.PullInterval = 100 * time.Millisecond
	}
	if cfg.Aggregators == 0 {
		cfg.Aggregators = 1
	}
	daemon := filepath.Join(bin, "projfreqd")
	routerBin := filepath.Join(bin, "projfreq-router")
	shape := []string{
		"-summary", cfg.Summary,
		"-d", fmt.Sprint(cfg.Dim),
		"-q", fmt.Sprint(cfg.Alphabet),
		"-seed", fmt.Sprint(cfg.Seed),
		"-shards", "2",
	}

	c := &Cluster{}
	// Ingest nodes start first: with portfile-announced addresses, the
	// proxies (and every URL handed to the upper tiers) need the bound
	// addresses to exist.
	for i := 0; i < cfg.IngestNodes; i++ {
		args := append(append([]string{}, shape...),
			"-data-dir", t.TempDir(),
			"-fsync", "always",
		)
		n := NewNode(t, fmt.Sprintf("ingest%d", i), daemon, args...)
		c.Ingest = append(c.Ingest, n)
		n.Start(t)
	}
	var ingestURLs []string
	if cfg.Faults {
		for _, n := range c.Ingest {
			p := NewProxy(t, n.Addr)
			c.Proxies = append(c.Proxies, p)
			ingestURLs = append(ingestURLs, p.URL())
		}
	} else {
		ingestURLs = c.IngestURLs()
	}

	aggArgs := append(append([]string{}, shape...),
		"-pull-from", strings.Join(ingestURLs, ","),
		"-pull-interval", cfg.PullInterval.String(),
		"-pull-timeout", "2s",
	)
	var aggURLs []string
	for i := 0; i < cfg.Aggregators; i++ {
		a := NewNode(t, fmt.Sprintf("aggregator%d", i), daemon, aggArgs...)
		c.Aggregators = append(c.Aggregators, a)
		a.Start(t)
		aggURLs = append(aggURLs, a.URL())
	}
	c.Aggregator = c.Aggregators[0]

	routerArgs := append([]string{
		"-ingest", strings.Join(ingestURLs, ","),
		"-aggregators", strings.Join(aggURLs, ","),
	}, cfg.RouterArgs...)
	c.Router = NewNode(t, "router", routerBin, routerArgs...)
	c.Router.Start(t)
	return c
}

// IngestURLs returns the ingest tier's base URLs as the upper tiers
// see them: the fault proxies' URLs when the cluster runs with
// Config.Faults, the nodes' own URLs otherwise. This is the ring's
// node set.
func (c *Cluster) IngestURLs() []string {
	if len(c.Proxies) > 0 {
		out := make([]string, len(c.Proxies))
		for i, p := range c.Proxies {
			out[i] = p.URL()
		}
		return out
	}
	out := make([]string, len(c.Ingest))
	for i, n := range c.Ingest {
		out[i] = n.URL()
	}
	return out
}

// GetStats fetches and decodes a daemon's /v1/stats.
func GetStats(t *testing.T, url string) node.Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st node.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// WaitConverged polls the aggregator until its serving epoch's
// merged_rows reaches want: every acked row is inside an absorbed
// source summary. Fails with both sides' counts on timeout.
func WaitConverged(t *testing.T, aggURL string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last node.Stats
	for time.Now().Before(deadline) {
		last = GetStats(t, aggURL)
		if last.Epoch != nil && last.Epoch.MergedRows == want {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("aggregator serves epoch %+v after %v, want %d merged rows (cluster: %+v)",
		last.Epoch, timeout, want, last.Cluster)
}

// Poll retries cond every 20ms until it returns true or the deadline
// passes; timeouts fail the test with what. Chaos tests use this
// instead of fixed sleeps so they wait exactly as long as the cluster
// needs, no longer and — under CI load — no shorter.
func Poll(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("gave up after %v waiting for %s", timeout, what)
}

// GetRouterStats fetches and decodes /v1/router/stats.
func GetRouterStats(t *testing.T, routerURL string) router.Stats {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/router/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st router.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// WaitQueuesDrained polls the router until every retry queue is
// empty: every row the router ever acked as accepted has been
// delivered (or — if the test allowed it — terminally rejected).
// Chaos schedules call this before flipping a fault on an edge so no
// redelivery is in flight when the connection is cut, which is what
// keeps their fault model whole-request (exactly-once provable).
func WaitQueuesDrained(t *testing.T, routerURL string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last router.Stats
	for time.Now().Before(deadline) {
		last = GetRouterStats(t, routerURL)
		drained := true
		for _, q := range last.Queues {
			if q.DepthRows > 0 {
				drained = false
			}
		}
		if drained {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("router queues not drained after %v: %+v", timeout, last.Queues)
}

// PostJSON posts a JSON body and returns status + response bytes.
func PostJSON(t *testing.T, url string, body interface{}) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}
