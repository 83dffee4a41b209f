package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"domd/internal/obs"
)

// serveProc is one `domd serve` subprocess on a loopback port.
type serveProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs `domd serve` with args plus a loopback -addr; its
// output goes to logPath.
func startServer(domd string, args []string, logPath string) (*serveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(domd, append(append([]string{"serve"}, args...), "-addr", addr, "-quiet")...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without running its cleanup, the kernel
	// kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serveProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200. It fails fast when the
// process exits first.
func (s *serveProc) waitReady(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("domd serve exited before ready (%v): %s", s.waitErr, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get(s.base + "/readyz"); err == nil {
			resp.Body.Close() //lint:ignore droppederr the probe reads only the status
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("domd serve not ready after %v: %s", timeout, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *serveProc) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop asks for a graceful shutdown and escalates to SIGKILL; it returns
// once the process has been reaped.
func (s *serveProc) stop() {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-s.done:
			return
		case <-time.After(20 * time.Second):
		}
	}
	s.kill()
}

// kill SIGKILLs the process and waits for it: a crash, as far as the WAL
// can tell.
func (s *serveProc) kill() {
	//lint:ignore droppederr Kill fails only when the process has already exited, which the wait below observes
	_ = s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func (s *serveProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// client is one closed-loop connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads the server's /metrics into name{labels} → value.
func (c *client) scrape() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return obs.ParseText(bytes.NewReader(body))
}

// counterDelta sums every series of a metric family across two scrapes.
func counterDelta(before, after map[string]float64, family string) float64 {
	sum := func(m map[string]float64) float64 {
		t := 0.0
		for k, v := range m {
			if k == family || strings.HasPrefix(k, family+"{") {
				t += v
			}
		}
		return t
	}
	return sum(after) - sum(before)
}
