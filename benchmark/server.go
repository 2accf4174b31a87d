package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"flownet"
)

// This file owns everything the benchmark leaves outside its own memory:
// the flownetd children, the keep-awake helper and the scratch directory.
// Every exit path — return, error, signal — goes through cleanup.

// env is one run's environment: where the repository is, which flownetd
// binary to boot, and the scratch directory for corpora and data dirs.
type env struct {
	root     string // repository root (holds go.mod of module flownet)
	flownetd string // path of the built binary
	tmp      string // scratch directory, removed at exit

	mu       sync.Mutex
	children []*child
}

// findRoot walks up from the working directory to the flownet module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module flownet\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the flownet repository (no go.mod of module flownet above the working directory)")
		}
		dir = parent
	}
}

// newEnv locates the repository, builds flownetd from the working tree
// unless a binary was given, and creates the scratch directory under
// benchmark/out (git-ignored, inside the checkout).
func newEnv(flownetdPath string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, flownetd: flownetdPath, tmp: tmp}
	if e.flownetd == "" {
		e.flownetd = filepath.Join(tmp, "flownetd")
		cmd := exec.Command("go", "build", "-o", e.flownetd, "./cmd/flownetd")
		cmd.Dir = root
		if b, err := cmd.CombinedOutput(); err != nil {
			e.cleanup()
			return nil, fmt.Errorf("building flownetd: %v\n%s", err, b)
		}
	}
	return e, nil
}

// outPath names a file under benchmark/out that outlives the run.
func (e *env) outPath(name string) string { return filepath.Join(e.root, "benchmark", "out", name) }

// cleanup kills every child still running, waits for it, and removes the
// scratch directory. It is safe to call more than once.
func (e *env) cleanup() {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(e.tmp)
}

// cleanupOnSignal makes the signals that end a run early take the cleanup
// path too: SIGINT, SIGTERM, SIGHUP, and SIGPIPE (the table piped into a
// reader that has gone away).
func (e *env) cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-ch
		e.cleanup()
		os.Exit(130)
	}()
}

// child is one running flownetd (or the keep-awake helper, which has no
// address and no log).
type child struct {
	cmd  *exec.Cmd
	addr string // host:port
	log  bytes.Buffer
	done chan struct{} // closed when the process has been waited for
}

func (c *child) pid() int    { return c.cmd.Process.Pid }
func (c *child) url() string { return "http://" + c.addr }

// kill stops the child at once (SIGKILL — the crash the durable store must
// survive) and waits until it has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// healthDeadline bounds how long a child may take to answer /healthz: a
// 20000-vertex text corpus loads in a few seconds.
const healthDeadline = 60 * time.Second

// start boots flownetd with the given flags on a free loopback port and
// returns once /healthz answers. Should another process take the port
// between freePort and the child's bind, the child exits and its log, with
// the bind error, is returned.
func (e *env) start(args ...string) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, done: make(chan struct{})}
	c.cmd = exec.Command(e.flownetd, append([]string{"-listen", addr}, args...)...)
	c.cmd.Stdout = &c.log
	c.cmd.Stderr = &c.log
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	cl := flownet.NewClient(c.url()).
		WithHTTPClient(&http.Client{Timeout: 2 * time.Second}).
		WithRetryPolicy(flownet.RetryPolicy{MaxAttempts: 1})
	deadline := time.Now().Add(healthDeadline)
	for {
		if h, err := cl.Healthz(context.Background()); err == nil && h.Ok {
			return c, nil
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("flownetd exited before becoming healthy:\n%s", c.log.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			e.stop(c)
			return nil, fmt.Errorf("flownetd not healthy after %v:\n%s", healthDeadline, c.log.String())
		}
	}
}

// keepAwake starts the keep-awake helper (keepawake_linux.go): this program
// again, spinning at idle priority on every processor until cleanup kills
// it. Where it cannot run the benchmark goes on without it, and says so.
func (e *env) keepAwake() {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench: no keep-awake helper:", err)
		return
	}
	c := &child{done: make(chan struct{})}
	c.cmd = exec.Command(self, "-keep-awake")
	c.cmd.Stderr = os.Stderr
	if err := c.cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "flowbench: no keep-awake helper:", err)
		return
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
}

// stop kills the child and forgets it.
func (e *env) stop(c *child) {
	c.kill()
	e.mu.Lock()
	for i, x := range e.children {
		if x == c {
			e.children = append(e.children[:i], e.children[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}
