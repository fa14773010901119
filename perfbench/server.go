package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// server is one mobilesimd process on an ephemeral loopback port with a
// fresh memory-only cache (no -cache directory, so nothing carries over
// between runs).
type server struct {
	cmd  *exec.Cmd
	addr string
	base string
	done chan struct{} // closed once the process has been reaped
	err  error         // the process's exit status, valid after done
	// startCPU is the server's CPU time when it first answered /healthz.
	startCPU time.Duration
}

// cpu is the CPU time the server process has used so far.
func (s *server) cpu() time.Duration { return pidCPU(s.cmd.Process.Pid) }

// live tracks the running servers so a signal to the benchmark stops them
// before it exits.
var live = struct {
	sync.Mutex
	m    map[*server]bool
	once sync.Once
}{m: map[*server]bool{}}

// startServer launches bin on one thread (GOMAXPROCS 1, see cpu.go) and
// waits for its first 200 from /healthz.
func startServer(bin string, workers int) (*server, error) {
	if bin == "" {
		return nil, errors.New("served-sweep needs --server (the mobilesimd binary)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{addr: "127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	s.base = "http://" + s.addr
	s.cmd = exec.Command(bin, "-addr", s.addr, "-max-workers", strconv.Itoa(workers))
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	s.cmd.Stdout, s.cmd.Stderr = os.Stderr, os.Stderr
	// The kernel kills the server if the benchmark dies without cleaning up.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	watchSignals()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	go func() { s.err = s.cmd.Wait(); close(s.done) }()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.startCPU = s.cpu()
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("mobilesimd exited before serving: %v", s.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("mobilesimd did not answer /healthz within 20s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop ends the server (SIGTERM, then SIGKILL after 5s), waits for it, and
// reports a process or listener that outlived the stop.
func (s *server) stop() error {
	live.Lock()
	delete(live.m, s)
	live.Unlock()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	if err := syscall.Kill(s.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("mobilesimd pid %d still present after stop", s.cmd.Process.Pid)
	}
	if c, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
		c.Close()
		return fmt.Errorf("something still listens on %s after mobilesimd stopped", s.addr)
	}
	return nil
}

// watchSignals stops every live server when the benchmark is interrupted,
// then exits without printing a result.
func watchSignals() {
	live.once.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		go func() {
			sig := <-ch
			stopServers()
			fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
			os.Exit(1)
		}()
	})
}

// stopServers stops every live server, on the way out of a run that cannot
// finish.
func stopServers() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		_ = s.stop() // the run is being abandoned; a failed stop has no one to report to
	}
}
