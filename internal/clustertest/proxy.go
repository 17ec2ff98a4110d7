// Fault-injecting TCP proxy for cluster tests. Every network edge a
// chaos test wants to break runs through one of these instead of
// straight to the node, so the test can cut, stall, or slow the edge
// without touching the process behind it.
//
// The fault model is connection-scoped: SetFault installs the fault
// for connections accepted from then on AND severs every existing
// connection, so a test that flips a node to Blackhole knows no
// pre-fault connection keeps working through the partition. The safe
// chaos schedules (the ones that can assert exactly-once delivery)
// only flip faults while no observe request is in flight on the edge,
// so a lost connection is always a whole lost request — never an
// acked-but-unreported one. Sever is the deliberately unsafe fault
// (it cuts mid-stream); convergence tests must not use it on the
// ingest path.
package clustertest

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// FaultKind selects how a proxy treats connections.
type FaultKind int

const (
	// Pass relays both directions untouched.
	Pass FaultKind = iota
	// Drop refuses service: every accepted connection is closed
	// immediately, so clients see a fast connection reset — the
	// crashed-process failure mode, without crashing the process.
	Drop
	// Blackhole accepts connections and never relays a byte in either
	// direction — the silent-partition failure mode. Clients block
	// until their own timeouts fire.
	Blackhole
	// Delay relays both directions but sleeps Fault.Delay before each
	// chunk — the congested-link failure mode.
	Delay
	// Sever relays until Fault.SeverAfter bytes have crossed in the
	// faulted direction, then cuts the connection — the
	// mid-response-crash failure mode. This is the one fault that can
	// lose an ack after the backend acted, so exactly-once chaos
	// schedules must keep it off the ingest path.
	Sever
)

// Direction says which flow a Delay or Sever fault applies to.
// Connection-level faults (Drop, Blackhole) ignore it.
type Direction int

const (
	// Both faults traffic in both directions.
	Both Direction = iota
	// ToBackend faults only client->backend bytes (requests).
	ToBackend
	// ToClient faults only backend->client bytes (responses).
	ToClient
)

// Fault is one proxy behavior.
type Fault struct {
	Kind FaultKind
	// Dir scopes Delay and Sever to one flow; Both by default.
	Dir Direction
	// Delay is the per-chunk latency for Kind == Delay.
	Delay time.Duration
	// SeverAfter is how many bytes Kind == Sever relays in the faulted
	// direction before cutting the connection.
	SeverAfter int64
}

// Proxy is a single-backend TCP fault proxy. It binds its listener in
// the constructor (listener-first: the address it reports is already
// accepting before any client sees it), so harness code can hand its
// URL to a router or aggregator with no port race.
type Proxy struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	fault  Fault
	conns  map[net.Conn]struct{}
	closed bool

	// Accepted counts connections accepted over the proxy's lifetime,
	// for tests that want to prove traffic actually crossed the edge.
	accepted int64

	// events records fault transitions to a per-proxy file in the same
	// directory as the node logs, so a failed chaos run's artifact
	// shows when each edge was cut and healed next to what the nodes
	// were doing at the time.
	events  *log.Logger
	logFile *os.File
}

// NewProxy starts a proxy in front of backend (host:port) on an
// ephemeral localhost port, passing traffic until a fault is set.
func NewProxy(t *testing.T, backend string) *Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Proxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	logPath := filepath.Join(LogDir(t), fmt.Sprintf("proxy-%d.log", nodeSeq.Add(1)))
	if f, err := os.Create(logPath); err == nil {
		p.logFile = f
		p.events = log.New(f, "", log.Lmicroseconds)
		p.events.Printf("proxy %s -> %s up", ln.Addr(), backend)
	}
	t.Cleanup(p.Close)
	go p.acceptLoop()
	return p
}

// faultName labels a fault for the event log.
func faultName(k FaultKind) string {
	switch k {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Blackhole:
		return "blackhole"
	case Delay:
		return "delay"
	case Sever:
		return "sever"
	}
	return "unknown"
}

// Addr returns the proxy's host:port.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL — what routers and aggregators are
// given in place of the backend's own URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Accepted reports how many connections the proxy has accepted.
func (p *Proxy) Accepted() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// SetFault installs f for future connections and severs every
// existing one, so the new behavior governs the whole edge at once.
func (p *Proxy) SetFault(f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fault = f
	if p.events != nil {
		p.events.Printf("fault -> %s (severing %d live conns; %d accepted so far)",
			faultName(f.Kind), len(p.conns), p.accepted)
	}
	for c := range p.conns {
		c.Close()
	}
	// The relay goroutines unregister their own connections; clearing
	// here would race their deferred deletes.
}

// Heal is SetFault(Pass).
func (p *Proxy) Heal() { p.SetFault(Fault{Kind: Pass}) }

// Close stops accepting and severs all connections. Idempotent.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.events != nil {
		p.events.Printf("proxy down (%d conns accepted over its lifetime)", p.accepted)
		p.logFile.Close()
		p.events = nil
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
}

// track registers c for fault-time severing; it reports false (and
// closes c) if the proxy is already closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // Close tore the listener down
		}
		p.mu.Lock()
		fault := p.fault
		p.accepted++
		p.mu.Unlock()
		go p.serve(client, fault)
	}
}

// serve handles one accepted connection under the fault captured at
// accept time (a later SetFault closes the connection rather than
// changing its behavior mid-flight).
func (p *Proxy) serve(client net.Conn, fault Fault) {
	switch fault.Kind {
	case Drop:
		client.Close()
		return
	case Blackhole:
		// Hold the connection open, relay nothing. It dies when the
		// client gives up, the fault changes, or the proxy closes.
		if !p.track(client) {
			return
		}
		// Drain client bytes into the void so small requests don't
		// error at the sender — they just never get answered.
		io.Copy(io.Discard, client)
		p.untrack(client)
		return
	}

	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client) {
		backend.Close()
		return
	}
	if !p.track(backend) {
		p.untrack(client)
		return
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.relay(backend, client, fault, fault.Dir != ToClient)
	}()
	go func() {
		defer wg.Done()
		p.relay(client, backend, fault, fault.Dir != ToBackend)
	}()
	wg.Wait()
	p.untrack(client)
	p.untrack(backend)
}

// relay copies src to dst, applying fault when faulted is true, and
// severs both sides of the connection when its flow ends or faults
// out — half-open relays would let a Sever look like a clean EOF.
func (p *Proxy) relay(dst, src net.Conn, fault Fault, faulted bool) {
	buf := make([]byte, 32<<10)
	var crossed int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if faulted {
				switch fault.Kind {
				case Delay:
					time.Sleep(fault.Delay)
				case Sever:
					if crossed+int64(n) > fault.SeverAfter {
						keep := fault.SeverAfter - crossed
						if keep > 0 {
							dst.Write(chunk[:keep])
						}
						dst.Close()
						src.Close()
						return
					}
				}
				crossed += int64(n)
			}
			if _, werr := dst.Write(chunk); werr != nil {
				src.Close()
				return
			}
		}
		if err != nil {
			dst.Close()
			src.Close()
			return
		}
	}
}
