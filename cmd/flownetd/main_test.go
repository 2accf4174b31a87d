package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"flownet/internal/cli"
	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// TestMain doubles as a real flownetd entry point: with FLOWNETD_CHILD set
// the test binary re-execs into run() instead of the test suite. The
// kill-restart durability test needs a process it can SIGKILL mid-flight,
// which no in-process harness can simulate.
func TestMain(m *testing.M) {
	if args := os.Getenv("FLOWNETD_CHILD"); args != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		cli.Exit("flownetd", run(ctx, strings.Split(args, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of the
// serving goroutine and the reads of the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestUsageErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb bytes.Buffer
	for name, tc := range map[string][]string{
		"no nets without ingest":    {},
		"unknown flag":              {"-nosuchflag"},
		"wal-sync without data-dir": {"-allow-ingest", "-wal-sync"},
		"snapshot without data-dir": {"-allow-ingest", "-snapshot-every", "8"},
	} {
		if err := run(ctx, tc, &out, &errb); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%s: err = %v, want cli.ErrUsage", name, err)
		}
	}
	// Which exact engine answers is core.Solve's decision, not an operator's.
	errb.Reset()
	err := run(ctx, []string{"-net", "x.txt", "-engine", "teg"}, &out, &errb)
	if !errors.Is(err, cli.ErrUsage) || !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine: err = %v, stderr %q; want it rejected as an unknown flag", err, errb.String())
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{cli.ErrUsage, 2},
		{errors.New("boom"), 1},
	} {
		if got := cli.ExitCode(tc.err); got != tc.want {
			t.Errorf("cli.ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestDuplicateNetNamesFail: two -net flags with the same name must abort
// startup (only a name recovered from -data-dir is skipped).
func TestDuplicateNetNamesFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.txt")
	if err := os.WriteFile(path, []byte("0 1 1 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-net", "a=" + path, "-net", "a=" + path, "-listen", "127.0.0.1:0",
	}, &out, &errb)
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("duplicate -net names: err = %v, want a runtime error", err)
	}
}

func TestMissingNetworkFileIsRuntimeError(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-net", filepath.Join(t.TempDir(), "nope.txt"), "-listen", "127.0.0.1:0"}, &out, &errb)
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("err = %v, want a runtime (non-usage) error", err)
	}
}

func TestSplitNetSpec(t *testing.T) {
	for _, tc := range []struct{ spec, name, path string }{
		{"a=b.txt", "a", "b.txt"},
		{"data/transfers.txt.gz", "transfers", "data/transfers.txt.gz"},
		{"plain", "plain", "plain"},
	} {
		name, path := splitNetSpec(tc.spec)
		if name != tc.name || path != tc.path {
			t.Errorf("splitNetSpec(%q) = (%q, %q), want (%q, %q)", tc.spec, name, path, tc.name, tc.path)
		}
	}
}

// startServer runs flownetd on a loopback port in a goroutine and returns
// its base URL plus a shutdown function that asserts a clean exit.
func startServer(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	args := append([]string{"-listen", "127.0.0.1:0"}, extraArgs...)
	if os.Getenv("FLOWNET_TEST_MMAP") != "" {
		args = append(args, "-mmap")
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &stdout, &stderr) }()

	// The serving log line reports the resolved port.
	re := regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("flownetd exited before serving: %v\nstderr: %s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("flownetd did not start serving\nstderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("flownetd shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("flownetd did not shut down")
		}
		if !strings.Contains(stderr.String(), "shut down cleanly") {
			t.Fatalf("missing clean-shutdown log\nstderr: %s", stderr.String())
		}
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, rb, err)
		}
	}
	return resp.StatusCode
}

// TestBootCollectsTheLoadsGarbage guards the collection run makes before
// it serves: once the first request is answered, the collector's heap goal
// must be set by what is served, not by the load's transient — within
// 1.2× of the goal a forced collection then sets. Counted, not clocked.
// On this 3000-vertex Bitcoin corpus (276 K interactions) the goal
// reads 0.98–0.99× the forced one; booted without that collection, it
// read 1.35–1.86×, in this package's run and alone. A -precompute boot
// skips the collection, because the tables' own cycles have already set
// the goal after the load; it must meet the same bound.
func TestBootCollectsTheLoadsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "btc.txt")
	if err := tin.SaveNetwork(path, datagen.Bitcoin(datagen.Config{Vertices: 3000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-precompute"}} {
		t.Run(strings.Join(append([]string{"net"}, extra...), ""), func(t *testing.T) {
			runtime.GC() // the generator's and the last boot's garbage are not this boot's
			base, shutdown := startServer(t, append([]string{"-net", "btc=" + path}, extra...)...)
			defer shutdown()
			if status := getJSON(t, base+"/flow?net=btc&seed=1", nil); status != http.StatusOK {
				t.Fatalf("flow: status %d", status)
			}
			served := heapGoal()
			runtime.GC()
			collected := heapGoal()
			t.Logf("heap goal after one request %d B, after a forced collection %d B (%.2fx)",
				served, collected, float64(served)/float64(collected))
			if float64(served) > 1.2*float64(collected) {
				t.Errorf("heap goal after one request is %.2fx the goal a collection sets, want at most 1.2x",
					float64(served)/float64(collected))
			}
		})
	}
}

// heapGoal reads the collector's current heap goal.
func heapGoal() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestServeLoadedNetwork boots flownetd on a real port with a network file,
// queries it over HTTP and shuts it down cleanly.
func TestServeLoadedNetwork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.txt")
	if err := os.WriteFile(path, []byte("0 1 1 5\n1 2 2 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown := startServer(t, "-net", "chain="+path, "-cache-size", "16")
	defer shutdown()

	var health struct {
		Ok       bool `json:"ok"`
		Networks map[string]struct {
			Durable bool `json:"durable"`
		} `json:"networks"`
	}
	if status := getJSON(t, base+"/healthz", &health); status != http.StatusOK || !health.Ok {
		t.Fatalf("healthz: status %d, body %+v", status, health)
	}
	if health.Networks["chain"].Durable {
		t.Fatalf("healthz reports durable network without -data-dir: %+v", health)
	}
	var flowRes struct {
		Ok   bool    `json:"ok"`
		Flow float64 `json:"flow"`
	}
	if status := getJSON(t, base+"/flow?net=chain&source=0&sink=2", &flowRes); status != http.StatusOK {
		t.Fatalf("flow: status %d", status)
	}
	if !flowRes.Ok || flowRes.Flow != 5 {
		t.Fatalf("flow result %+v, want Ok flow 5", flowRes)
	}
	// Ingest is off by default.
	if status := postJSON(t, base+"/ingest", map[string]any{
		"network": "chain", "interactions": []map[string]any{{"from": 0, "to": 1, "time": 9, "qty": 1}},
	}, nil); status != http.StatusForbidden {
		t.Fatalf("ingest without -allow-ingest: status %d, want 403", status)
	}
}

// TestServeEmptyWithIngest boots flownetd with no networks and -allow-ingest,
// registers a network over HTTP, streams interactions and watches the flow
// change across generations.
func TestServeEmptyWithIngest(t *testing.T) {
	base, shutdown := startServer(t, "-allow-ingest")
	defer shutdown()

	if status := postJSON(t, base+"/networks", map[string]any{"name": "live", "vertices": 3}, nil); status != http.StatusOK {
		t.Fatalf("create network: status %d", status)
	}
	if status := postJSON(t, base+"/ingest", map[string]any{
		"network": "live",
		"interactions": []map[string]any{
			{"from": 0, "to": 1, "time": 1, "qty": 5},
			{"from": 1, "to": 2, "time": 2, "qty": 5},
		},
	}, nil); status != http.StatusOK {
		t.Fatalf("ingest: status %d", status)
	}
	var flowRes struct {
		Flow float64 `json:"flow"`
		Ok   bool    `json:"ok"`
	}
	if status := getJSON(t, base+"/flow?net=live&source=0&sink=2", &flowRes); status != http.StatusOK || flowRes.Flow != 5 {
		t.Fatalf("flow after ingest: status %d result %+v, want flow 5", status, flowRes)
	}
	var infos map[string]struct {
		Generation uint64 `json:"generation"`
	}
	if status := getJSON(t, base+"/networks", &infos); status != http.StatusOK || infos["live"].Generation != 2 {
		t.Fatalf("networks listing %+v, want live at generation 2", infos)
	}
}

// child is a real flownetd subprocess (the re-exec'd test binary).
type child struct {
	cmd    *exec.Cmd
	base   string
	stderr *syncBuffer
}

// startChild launches flownetd as a separate process on a loopback port and
// waits until it serves.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	if os.Getenv("FLOWNET_TEST_MMAP") != "" {
		args = append(args, "-mmap")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FLOWNETD_CHILD="+strings.Join(args, "\x1f"))
	var stderr syncBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	re := regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return &child{cmd: cmd, base: "http://" + m[1], stderr: &stderr}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("flownetd child did not start serving\nstderr: %s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillRestartDurability is the end-to-end crash test of the durable
// store: ingest into a -data-dir service, SIGKILL it mid-flight, corrupt
// the WAL tail (a batch that was being written but never acknowledged),
// restart on the same directory, and require every acknowledged batch to
// answer identically — and nothing beyond them to exist.
func TestKillRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	c1 := startChild(t, "-allow-ingest", "-data-dir", dir, "-wal-sync", "-snapshot-every", "4")

	if status := postJSON(t, c1.base+"/networks", map[string]any{"name": "live", "vertices": 4}, nil); status != http.StatusOK {
		t.Fatalf("create network: status %d", status)
	}
	// Six acknowledged batches: enough to cross the -snapshot-every 4
	// threshold, so recovery exercises snapshot load + WAL replay, not just
	// replay from an empty base.
	var lastGen uint64
	for i := 0; i < 6; i++ {
		var res struct {
			Generation uint64 `json:"generation"`
		}
		if status := postJSON(t, c1.base+"/ingest", map[string]any{
			"network": "live",
			"interactions": []map[string]any{
				{"from": 0, "to": 1, "time": float64(2 * i), "qty": 5},
				{"from": 1, "to": 2, "time": float64(2*i + 1), "qty": 4},
			},
		}, &res); status != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, status)
		}
		lastGen = res.Generation
	}
	// Wait for the background checkpoint so the pre-kill state is a
	// snapshot plus a WAL suffix.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var stats struct {
			Store struct {
				Snapshots uint64 `json:"snapshots"`
			} `json:"store"`
		}
		getJSON(t, c1.base+"/stats", &stats)
		if stats.Store.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var flowBefore struct {
		Ok   bool    `json:"ok"`
		Flow float64 `json:"flow"`
	}
	if status := getJSON(t, c1.base+"/flow?net=live&source=0&sink=2", &flowBefore); status != http.StatusOK || !flowBefore.Ok {
		t.Fatalf("flow before kill: status %d result %+v", status, flowBefore)
	}

	// kill -9: no shutdown hook runs, no WAL close, no final fsync.
	if err := c1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c1.cmd.Wait()

	// A batch that was mid-write when the process died leaves a torn frame
	// at the WAL tail. Simulate the worst version of it: garbage bytes
	// whose length prefix is absurd. It was never acknowledged, so recovery
	// must discard it without losing anything that was.
	wals, err := filepath.Glob(filepath.Join(dir, "live", "wal-g*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL under %s (err %v)", dir, err)
	}
	f, err := os.OpenFile(wals[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xFF}, 13)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := startChild(t, "-allow-ingest", "-data-dir", dir)
	if !strings.Contains(c2.stderr.String(), `recovered "live"`) {
		t.Fatalf("restart did not log recovery\nstderr: %s", c2.stderr.String())
	}
	var flowAfter struct {
		Ok   bool    `json:"ok"`
		Flow float64 `json:"flow"`
	}
	if status := getJSON(t, c2.base+"/flow?net=live&source=0&sink=2", &flowAfter); status != http.StatusOK {
		t.Fatalf("flow after restart: status %d", status)
	}
	if flowAfter != flowBefore {
		t.Fatalf("flow diverged across kill/restart: before %+v, after %+v", flowBefore, flowAfter)
	}
	var infos map[string]struct {
		Generation   uint64 `json:"generation"`
		Interactions int    `json:"interactions"`
	}
	getJSON(t, c2.base+"/networks", &infos)
	if infos["live"].Generation != lastGen {
		t.Fatalf("generation after restart = %d, want the last acknowledged %d (no partial application)",
			infos["live"].Generation, lastGen)
	}
	if infos["live"].Interactions != 12 {
		t.Fatalf("interactions after restart = %d, want 12", infos["live"].Interactions)
	}
	var stats struct {
		Store struct {
			Durable    bool   `json:"durable"`
			Recoveries uint64 `json:"recoveries"`
		} `json:"store"`
	}
	getJSON(t, c2.base+"/stats", &stats)
	if !stats.Store.Durable || stats.Store.Recoveries != 1 {
		t.Fatalf("store stats after restart %+v, want durable with 1 recovery", stats.Store)
	}
	// The recovered catalog keeps accepting writes.
	if status := postJSON(t, c2.base+"/ingest", map[string]any{
		"network":      "live",
		"interactions": []map[string]any{{"from": 0, "to": 1, "time": 100, "qty": 1}},
	}, nil); status != http.StatusOK {
		t.Fatalf("ingest after restart: status %d", status)
	}

	// SIGTERM now: the child must drain, close its WALs and exit 0.
	if err := c2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c2.cmd.Wait(); err != nil {
		t.Fatalf("clean shutdown after recovery: %v\nstderr: %s", err, c2.stderr.String())
	}
	if !strings.Contains(c2.stderr.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown log\nstderr: %s", c2.stderr.String())
	}
}
