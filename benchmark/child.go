package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// child is one running overlayd process. Start it with startDaemon and always
// stop it: stop terminates the process and returns once it has been reaped.
type child struct {
	cmd     *exec.Cmd
	addr    string
	done    chan struct{} // closed once the process has been reaped
	waitErr error
	out     *capture
	stopped sync.Once
}

// live tracks every started daemon so a signal can reap them all.
var (
	liveMu  sync.Mutex
	liveSet = map[*child]bool{}
)

func reapAll() {
	liveMu.Lock()
	ds := make([]*child, 0, len(liveSet))
	for d := range liveSet {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

var startLine = regexp.MustCompile(`^overlayd on http://(\S+) `)

// startDaemon starts overlayd on an ephemeral loopback port, reads the bound
// address from its startup line and waits until /healthz answers 200, all
// within the deadline. On any failure the child is stopped before
// returning.
func startDaemon(ctx context.Context, bin string, args []string, deadline time.Duration) (*child, error) {
	out := &capture{first: make(chan string, 1)}
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
	cmd.Stdout, cmd.Stderr = out, out
	// If the benchmark dies without reaping its child, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting overlayd: %w", err)
	}
	d := &child{cmd: cmd, done: make(chan struct{}), out: out}
	liveMu.Lock()
	liveSet[d] = true
	liveMu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	fail := func(err error) (*child, error) {
		d.stop()
		return nil, fmt.Errorf("%w; overlayd output: %q", err, out.tail())
	}
	timeout := time.NewTimer(deadline)
	defer timeout.Stop()
	select {
	case line := <-out.first:
		m := startLine.FindStringSubmatch(line)
		if m == nil {
			return fail(fmt.Errorf("unexpected overlayd startup line %q", line))
		}
		d.addr = m[1]
	case <-d.done:
		return fail(fmt.Errorf("overlayd exited during start-up: %v", d.waitErr))
	case <-timeout.C:
		return fail(fmt.Errorf("overlayd printed no startup line within %v", deadline))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return fail(fmt.Errorf("overlayd exited before /healthz answered: %v", d.waitErr))
		case <-timeout.C:
			return fail(fmt.Errorf("/healthz did not answer 200 within %v", deadline))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits up to five seconds for a clean exit, then
// kills, and returns once the process has been reaped.
func (d *child) stop() {
	d.stopped.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		liveMu.Lock()
		delete(liveSet, d)
		liveMu.Unlock()
	})
}

// capture collects a child's output: it hands the first line to first and
// keeps the last few kilobytes for error messages.
type capture struct {
	mu    sync.Mutex
	buf   []byte
	first chan string
	sent  bool
}

func (c *capture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	if !c.sent {
		if i := bytes.IndexByte(c.buf, '\n'); i >= 0 {
			c.first <- string(c.buf[:i])
			c.sent = true
		}
	}
	if len(c.buf) > 64<<10 {
		c.buf = append(c.buf[:0], c.buf[len(c.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (c *capture) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.buf[max(0, len(c.buf)-2048):])
}
