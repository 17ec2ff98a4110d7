package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// launcher spawns the real daemons for one run and owns everything
// they leave behind: it is the only place processes are started, so
// stopAll on every exit path of main means no orphan survives a run.
// All of its files live under work (inside the checkout's build
// directory); logs move to keepLogs only when a run fails.
type launcher struct {
	bin  string // directory holding projfreqd and projfreq-router
	work string // scratch: data dirs, portfiles, logs

	mu    sync.Mutex
	procs []*proc
	seq   int
}

// proc is one daemon across its lifetimes (a restart reuses the
// address and arguments, as an operator's supervisor would).
type proc struct {
	name string
	id   int      // unique within the launcher: a repeated set-up reuses names, never files
	argv []string // binary and arguments, without the address flags
	addr string
	// dataDir is the daemon's -data-dir, empty when it runs in memory.
	dataDir string

	l      *launcher
	cmd    *exec.Cmd
	waited chan struct{}
	starts int

	// cpu and rss accumulate over every finished lifetime.
	cpu time.Duration
	rss int64 // peak resident set, KiB
}

// buildDaemons compiles the two binaries into dir from the checkout at
// root. go build is incremental, so a warm cache makes this a
// fraction of a second; the time is reported but is no part of setup_s.
func buildDaemons(root, dir string) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/projfreqd", "./cmd/projfreq-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building the daemons in %s: %v\n%s", root, err, out)
	}
	return time.Since(start), nil
}

func newLauncher(bin, work string) (*launcher, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &launcher{bin: bin, work: work}, nil
}

// dataDir returns a fresh scratch directory for one durable daemon.
func (l *launcher) dataDir(name string) string {
	l.mu.Lock()
	l.seq++
	dir := filepath.Join(l.work, fmt.Sprintf("%s-%d.data", name, l.seq))
	l.mu.Unlock()
	return dir
}

// start launches binary with args on an ephemeral port and waits until
// /v1/stats answers.
func (l *launcher) start(name, binary string, args ...string) (*proc, error) {
	p := &proc{name: name, argv: append([]string{filepath.Join(l.bin, binary)}, args...), l: l}
	l.mu.Lock()
	l.seq++
	p.id = l.seq
	l.procs = append(l.procs, p)
	l.mu.Unlock()
	return p, p.run()
}

// run starts one lifetime. The first binds 127.0.0.1:0 and announces
// the port through -portfile (no reserve-then-rebind race); restarts
// pin the same address so peers keep their configuration.
func (p *proc) run() error {
	if p.cmd != nil {
		return fmt.Errorf("%s is already running", p.name)
	}
	p.starts++
	base := filepath.Join(p.l.work, fmt.Sprintf("%s-%d.run%d", p.name, p.id, p.starts))
	logFile, err := os.Create(base + ".log")
	if err != nil {
		return err
	}
	args := []string{"-addr", p.addr}
	portfile := ""
	if p.addr == "" {
		portfile = base + ".port"
		args = []string{"-addr", "127.0.0.1:0", "-portfile", portfile}
	}
	cmd := exec.Command(p.argv[0], append(args, p.argv[1:]...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.waited = cmd, make(chan struct{})
	go func(waited chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		logFile.Close()
		close(waited)
	}(p.waited)

	deadline := time.Now().Add(30 * time.Second)
	for p.addr == "" {
		if blob, err := os.ReadFile(portfile); err == nil && len(blob) > 0 {
			p.addr = strings.TrimSpace(string(blob))
			break
		}
		if err := p.pause(deadline, "announcing its port"); err != nil {
			return err
		}
	}
	for {
		resp, err := http.Get(p.url() + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := p.pause(deadline, "answering /v1/stats"); err != nil {
			return err
		}
	}
}

// pause waits a moment for a starting process, failing if it has
// exited or the deadline passed.
func (p *proc) pause(deadline time.Time, what string) error {
	select {
	case <-p.waited:
		p.reap()
		return fmt.Errorf("%s exited before %s", p.name, what)
	case <-time.After(250 * time.Microsecond):
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("%s gave up %s", p.name, what)
	}
	return nil
}

func (p *proc) url() string { return "http://" + p.addr }

// kill sends SIGKILL — the crash case, and the only way this benchmark
// ever stops a daemon — and reaps it.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-p.waited
	p.reap()
}

// reap folds a finished lifetime's rusage into the totals.
func (p *proc) reap() {
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		if ru.Maxrss > p.rss {
			p.rss = ru.Maxrss
		}
	}
	p.cmd, p.waited = nil, nil
}

// stopAll kills every daemon still running and waits for each.
func (l *launcher) stopAll() {
	l.mu.Lock()
	procs := append([]*proc(nil), l.procs...)
	l.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// forget drops the finished processes of a torn-down topology so the
// next set-up starts from an empty list; their rusage is discarded
// with them.
func (l *launcher) forget() {
	l.stopAll()
	l.mu.Lock()
	l.procs = nil
	l.mu.Unlock()
}

// usage sums CPU time and takes the peak RSS over the processes whose
// binary is named binary. Only finished lifetimes count, so call it
// after stopAll.
func (l *launcher) usage(binary string) (cpu time.Duration, rssKiB int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.procs {
		if filepath.Base(p.argv[0]) != binary {
			continue
		}
		cpu += p.cpu
		if p.rss > rssKiB {
			rssKiB = p.rss
		}
	}
	return cpu, rssKiB
}

// argvs lists each process's full command line for the environment
// record.
func (l *launcher) argvs() map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]string, len(l.procs))
	for _, p := range l.procs {
		argv := append([]string{filepath.Base(p.argv[0]), "-addr", p.addr}, p.argv[1:]...)
		out[p.name] = strings.Join(argv, " ")
	}
	return out
}

// cleanup stops everything and removes the scratch directory. When
// the run failed, the per-process logs are moved to keepLogs first.
func (l *launcher) cleanup(failed bool, keepLogs string) error {
	l.stopAll()
	var errs []error
	if failed {
		logs, _ := filepath.Glob(filepath.Join(l.work, "*.log"))
		if len(logs) > 0 {
			errs = append(errs, os.MkdirAll(keepLogs, 0o755))
		}
		for _, path := range logs {
			errs = append(errs, os.Rename(path, filepath.Join(keepLogs, filepath.Base(path))))
		}
	}
	errs = append(errs, os.RemoveAll(l.work))
	return errors.Join(errs...)
}
