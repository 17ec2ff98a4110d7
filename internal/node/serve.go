package node

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/store"
)

// Serve is the serving loop of both binaries (projfreqd serves a Node,
// projfreq-router a router): it listens on addr, writes the bound
// address to portfile once the listener is live (when portfile is set,
// so -addr :0 callers such as the cluster harness learn the
// kernel-chosen port without a free-port race), and serves h until
// SIGINT/SIGTERM or a listener failure. It then drains in-flight
// requests and closes c. The order is load-bearing: handlers call into
// c, so if the 15-second drain budget expires with handlers still live,
// c is deliberately left for process exit rather than closed under them
// (a durable daemon's WAL then carries the recovery on next boot).
func Serve(name, addr, portfile string, h http.Handler, c io.Closer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.Close()
		return err
	}
	if portfile != "" {
		if err := store.WriteFileAtomic(portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			c.Close()
			return fmt.Errorf("writing portfile: %w", err)
		}
	}
	// Explicit server timeouts: MaxBytesReader bounds body size but
	// not read duration, so stalled clients must not pin goroutines.
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("%s: serving on %s", name, ln.Addr())

	select {
	case err = <-errc:
		// Handlers on already-accepted connections may still be
		// running, so drain before closing.
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("%s: signal received, draining connections", name)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if derr := srv.Shutdown(dctx); derr != nil {
		return fmt.Errorf("shutdown: %w", derr)
	}
	c.Close()
	return err
}
