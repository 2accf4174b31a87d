// Command flowload is a closed-loop load generator for flownetd: N workers
// each keep exactly one request in flight, replaying a Zipf-skewed mix of
// pair, seed, batch and pattern queries (plus optional ingest writers)
// against a live server through the retrying client, and report what the
// *client* saw — per-route p50/p95/p99 latency, throughput, error, shed
// and cache-hit rates — next to the server's own /stats delta for the same
// window:
//
//	flowload -addr http://localhost:8080 -net bitcoin -workers 16 -mix zipf -duration 30s
//
// Closed-loop means throughput is an outcome, not an input: when the
// server slows down, the offered load backs off exactly like a pool of
// synchronous callers would, so the measured latency distribution is the
// one a real client population experiences (no coordinated-omission
// inflation from a fixed arrival schedule).
//
// Client-side latencies land in the same fixed buckets the server's
// /metrics histograms use (internal/hist.DefaultBounds), so the two tails
// are directly comparable: the gap between them is queueing, transport and
// retry backoff. Every HTTP attempt is observed — a request that rides out
// two sheds contributes three latency samples and one op.
//
// The run is written to -out (default BENCH_load.json) as one JSON
// document (see report): a go-test-bench-like envelope with one entry per
// op kind. Exit codes follow internal/cli: 0 on success, 1 on runtime
// failure, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	flownet "flownet"
	"flownet/internal/cli"
	"flownet/internal/hist"
)

// The operation kinds of the mix. Each maps to one route, so client-side
// numbers line up with the server's per-route counters.
const (
	opPair    = "pair"    // GET /flow?source&sink
	opSeed    = "seed"    // GET /flow?seed
	opBatch   = "batch"   // POST /flow/batch
	opPattern = "pattern" // GET /patterns
	opIngest  = "ingest"  // POST /ingest (writers only)
)

var queryOps = []string{opPair, opSeed, opBatch, opPattern}

// defaultWeights is the query mix when -weights is not given: dominated by
// cheap point lookups with a tail of expensive batch and pattern scans,
// the shape of an interactive workload.
var defaultWeights = map[string]int{opPair: 4, opSeed: 3, opBatch: 1, opPattern: 2}

// patterns cycles the pattern queries through the paper's motifs in both
// execution modes; MaxInstances bounds each search so one pattern op stays
// comparable to the rest of the mix.
var patterns = []struct{ name, mode string }{
	{"P1", "pb"}, {"P2", "pb"}, {"P3", "pb"}, {"P1", "gb"}, {"P4", "pb"}, {"P6", "pb"},
}

const patternMaxInstances = 1000

// ingestBatchSize is the interaction count per writer batch: small enough
// to keep write latency in the same range as queries, large enough that
// the generation bump (stale cache entries + table refresh) is exercised.
const ingestBatchSize = 32

// opMetrics aggregates everything one operation kind saw, attempt by
// attempt. Latencies use the server's exact histogram buckets so the
// client and server tails are directly comparable.
type opMetrics struct {
	latency   *hist.Histogram
	ops       atomic.Uint64 // completed operations (after retries)
	opErrors  atomic.Uint64 // operations that ultimately failed
	attempts  atomic.Uint64 // HTTP exchanges, retries included
	shed      atomic.Uint64 // attempts answered 503/429
	transport atomic.Uint64 // attempts that died before a status
	cacheHits atomic.Uint64 // attempts answered from the server cache
}

func newOpMetrics() *opMetrics { return &opMetrics{latency: hist.NewDefault()} }

// observe records one HTTP attempt. Attempts cancelled by the run deadline
// are dropped: the load generator stopping is not a server failure.
func (m *opMetrics) observe(a flownet.Attempt) {
	if errors.Is(a.Err, context.Canceled) || errors.Is(a.Err, context.DeadlineExceeded) {
		return
	}
	m.attempts.Add(1)
	m.latency.Observe(a.Duration)
	switch {
	case a.Status == http.StatusServiceUnavailable || a.Status == http.StatusTooManyRequests:
		m.shed.Add(1)
	case a.Status == 0:
		m.transport.Add(1)
	}
	if a.CacheStatus == "hit" {
		m.cacheHits.Add(1)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.Exit("flowload", run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse flags, size the workload from the
// server's own /networks answer, drive the closed loop until the duration
// elapses, then print the summary and write the JSON artifact.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://localhost:8080", "base URL of the flownetd instance")
		netName     = fs.String("net", "", "network to load against (empty = the server's only network)")
		workers     = fs.Int("workers", 8, "closed-loop query workers (each keeps one request in flight)")
		duration    = fs.Duration("duration", 30*time.Second, "how long to drive load")
		mix         = fs.String("mix", "zipf", "vertex selection: zipf (skewed, cache-friendly) | uniform")
		zipfS       = fs.Float64("zipf-s", 1.2, "Zipf exponent for -mix zipf (must be > 1; larger = more skew)")
		seed        = fs.Int64("seed", 1, "base RNG seed; worker w derives its own stream from seed+w")
		weights     = fs.String("weights", "", "query mix as kind=weight pairs, e.g. pair=4,seed=3,batch=1,pattern=2 (empty = that default)")
		batchSize   = fs.Int("batch-size", 16, "seeds per POST /flow/batch request")
		retries     = fs.Int("retries", 0, "max attempts per request including the first (0 = client default, 1 = no retries)")
		allowIngest = fs.Bool("allow-ingest", false, "add ingest writers (the server must run with -allow-ingest)")
		ingestWk    = fs.Int("ingest-workers", 1, "ingest writer goroutines when -allow-ingest is set")
		windowFrac  = fs.Float64("window-frac", 0, "fraction of pair and seed queries that carry a random inclusive time window (0 = none, 1 = all)")
		out         = fs.String("out", "BENCH_load.json", "JSON report path (empty = skip)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.ErrUsage
	}
	if *workers < 1 || *duration <= 0 || *batchSize < 1 || *retries < 0 || *ingestWk < 0 {
		fmt.Fprintln(stderr, "flowload: -workers, -duration and -batch-size must be positive; -retries and -ingest-workers must be >= 0")
		return cli.ErrUsage
	}
	if *windowFrac < 0 || *windowFrac > 1 {
		fmt.Fprintln(stderr, "flowload: -window-frac must be in [0, 1]")
		return cli.ErrUsage
	}
	if *mix != "zipf" && *mix != "uniform" {
		fmt.Fprintf(stderr, "flowload: unknown -mix %q (want zipf or uniform)\n", *mix)
		return cli.ErrUsage
	}
	if *mix == "zipf" && *zipfS <= 1 {
		fmt.Fprintln(stderr, "flowload: -zipf-s must be > 1")
		return cli.ErrUsage
	}
	mixWeights, err := parseWeights(*weights)
	if err != nil {
		fmt.Fprintln(stderr, "flowload:", err)
		return cli.ErrUsage
	}

	// Size the workload from the server itself: vertex count bounds the key
	// space, MaxTime is where ingest writers start appending in order.
	probe := newClient(*addr, *retries)
	networks, err := probe.Networks(ctx)
	if err != nil {
		return fmt.Errorf("probing %s: %w", *addr, err)
	}
	if *netName == "" {
		if len(networks) != 1 {
			return fmt.Errorf("server has %d networks; pick one with -net", len(networks))
		}
		for name := range networks {
			*netName = name
		}
	}
	info, ok := networks[*netName]
	if !ok {
		return fmt.Errorf("server has no network %q", *netName)
	}
	if info.Vertices < 2 {
		return fmt.Errorf("network %q has %d vertices; need at least 2", *netName, info.Vertices)
	}

	statsBefore, err := probe.Stats(ctx)
	if err != nil {
		return fmt.Errorf("reading /stats before the run: %w", err)
	}

	metrics := make(map[string]*opMetrics, len(queryOps)+1)
	for _, kind := range queryOps {
		metrics[kind] = newOpMetrics()
	}
	if *allowIngest {
		metrics[opIngest] = newOpMetrics()
	}

	fmt.Fprintf(stdout, "flowload: %d workers (+%d ingest), %s mix against %q (%d vertices) at %s for %v\n",
		*workers, ingestWorkers(*allowIngest, *ingestWk), *mix, *netName, info.Vertices, *addr, *duration)

	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		wg.Add(1)
		w := &worker{
			client:     nil, // installed below; the observer closure needs w
			net:        *netName,
			rng:        rand.New(rand.NewSource(*seed + int64(i))),
			weights:    mixWeights,
			batchSize:  *batchSize,
			vertices:   info.Vertices,
			metrics:    metrics,
			windowFrac: *windowFrac,
			maxTime:    info.MaxTime,
		}
		if *mix == "zipf" {
			w.zipf = rand.NewZipf(w.rng, *zipfS, 1, uint64(info.Vertices-1))
		}
		// One client per worker: the observer reads the worker's current op
		// kind, which is race-free exactly because the loop is closed — the
		// worker never has two requests in flight.
		w.client = newClient(*addr, *retries).WithObserver(func(a flownet.Attempt) {
			metrics[w.current].observe(a)
		})
		go func() { defer wg.Done(); w.loop(runCtx) }()
	}

	// Ingest writers share one monotonic tick so timestamps only move
	// forward; batches may still arrive interleaved, which AllowOutOfOrder
	// absorbs server-side instead of failing the batch.
	var ingestTick atomic.Int64
	for i := 0; i < ingestWorkers(*allowIngest, *ingestWk); i++ {
		wg.Add(1)
		w := &ingestWriter{
			net:      *netName,
			rng:      rand.New(rand.NewSource(*seed + 1<<32 + int64(i))),
			vertices: info.Vertices,
			baseTime: info.MaxTime,
			tick:     &ingestTick,
			metrics:  metrics[opIngest],
		}
		w.client = newClient(*addr, *retries).WithObserver(func(a flownet.Attempt) {
			w.metrics.observe(a)
		})
		go func() { defer wg.Done(); w.loop(runCtx) }()
	}
	wg.Wait()
	elapsed := time.Since(start)

	statsAfter, err := probe.Stats(ctx)
	if err != nil {
		return fmt.Errorf("reading /stats after the run: %w", err)
	}

	rep := buildReport(metrics, elapsed, *workers, statsBefore, statsAfter)
	printSummary(stdout, metrics, elapsed, statsBefore, statsAfter)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return nil
}

func newClient(addr string, retries int) *flownet.Client {
	c := flownet.NewClient(addr)
	if retries > 0 {
		c.WithRetryPolicy(flownet.RetryPolicy{MaxAttempts: retries})
	}
	return c
}

func ingestWorkers(allow bool, n int) int {
	if !allow {
		return 0
	}
	return n
}

// parseWeights parses "kind=weight,..." into a mix table, defaulting to
// defaultWeights when spec is empty. At least one weight must be positive.
func parseWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return defaultWeights, nil
	}
	w := make(map[string]int, len(queryOps))
	for _, pair := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -weights entry %q (want kind=weight)", pair)
		}
		valid := false
		for _, kind := range queryOps {
			valid = valid || k == kind
		}
		if !valid {
			return nil, fmt.Errorf("unknown -weights kind %q (want one of %s)", k, strings.Join(queryOps, ", "))
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -weights value %q for %s", v, k)
		}
		w[k] = n
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return nil, errors.New("-weights sums to zero; nothing to send")
	}
	return w, nil
}

// worker is one closed-loop query issuer: draw an op kind from the mix,
// run it to completion (retries included), repeat until the deadline.
type worker struct {
	client    *flownet.Client
	net       string
	rng       *rand.Rand
	zipf      *rand.Zipf // nil for -mix uniform
	weights   map[string]int
	batchSize int
	vertices  int
	metrics   map[string]*opMetrics
	current   string // op kind of the in-flight request, read by the observer
	patternAt int
	// windowFrac is the probability that a pair or seed query carries a
	// random time window drawn over [0, maxTime] — exercising the
	// in-extraction window path and its distinct cache keys.
	windowFrac float64
	maxTime    float64
}

func (w *worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
		kind := w.pickKind()
		w.current = kind
		err := w.do(ctx, kind)
		if ctx.Err() != nil {
			// The deadline cut this op short; it is neither a success nor a
			// server failure, so it does not count.
			return
		}
		m := w.metrics[kind]
		m.ops.Add(1)
		if err != nil {
			m.opErrors.Add(1)
		}
	}
}

// pickKind draws one op kind proportionally to the mix weights, iterating
// queryOps (not the map) so equal seeds give equal op sequences.
func (w *worker) pickKind() string {
	total := 0
	for _, kind := range queryOps {
		total += w.weights[kind]
	}
	n := w.rng.Intn(total)
	for _, kind := range queryOps {
		if n -= w.weights[kind]; n < 0 {
			return kind
		}
	}
	return queryOps[len(queryOps)-1]
}

// vertex draws one vertex id under the configured skew. Zipf concentrates
// on low ids, which datagen's community layout makes well-connected — the
// hot-key behavior that gives the response cache something to do.
func (w *worker) vertex() int {
	if w.zipf != nil {
		return int(w.zipf.Uint64())
	}
	return w.rng.Intn(w.vertices)
}

// flowOpts returns nil (server defaults) or, with probability windowFrac,
// options carrying a random inclusive time window inside [0, maxTime].
func (w *worker) flowOpts() *flownet.FlowQueryOptions {
	if w.windowFrac <= 0 || w.rng.Float64() >= w.windowFrac {
		return nil
	}
	from := w.rng.Float64() * w.maxTime
	to := from + w.rng.Float64()*(w.maxTime-from)
	return &flownet.FlowQueryOptions{WindowFrom: &from, WindowTo: &to}
}

func (w *worker) do(ctx context.Context, kind string) error {
	switch kind {
	case opPair:
		src := w.vertex()
		snk := w.vertex()
		for snk == src {
			snk = w.rng.Intn(w.vertices)
		}
		_, err := w.client.Flow(ctx, w.net, flownet.VertexID(src), flownet.VertexID(snk), w.flowOpts())
		return err
	case opSeed:
		_, err := w.client.SeedFlow(ctx, w.net, flownet.VertexID(w.vertex()), w.flowOpts())
		return err
	case opBatch:
		seeds := make([]int, w.batchSize)
		for i := range seeds {
			seeds[i] = w.vertex()
		}
		_, err := w.client.BatchFlowSeeds(ctx, flownet.BatchRequest{Network: w.net, Seeds: seeds})
		return err
	case opPattern:
		p := patterns[w.patternAt%len(patterns)]
		w.patternAt++
		_, err := w.client.Patterns(ctx, w.net, p.name, p.mode,
			&flownet.PatternQueryOptions{MaxInstances: patternMaxInstances})
		return err
	}
	panic("unreachable op kind " + kind)
}

// ingestWriter appends small interaction batches, timestamps strictly
// after everything the network held at probe time.
type ingestWriter struct {
	client   *flownet.Client
	net      string
	rng      *rand.Rand
	vertices int
	baseTime float64
	tick     *atomic.Int64
	metrics  *opMetrics
}

func (w *ingestWriter) loop(ctx context.Context) {
	for ctx.Err() == nil {
		batch := make([]flownet.IngestInteraction, ingestBatchSize)
		for i := range batch {
			from := w.rng.Intn(w.vertices)
			to := w.rng.Intn(w.vertices)
			for to == from {
				to = w.rng.Intn(w.vertices)
			}
			batch[i] = flownet.IngestInteraction{
				From: from,
				To:   to,
				Time: w.baseTime + float64(w.tick.Add(1))*0.001,
				Qty:  1 + w.rng.Float64()*10,
			}
		}
		_, err := w.client.Ingest(ctx, flownet.IngestRequest{
			Network:      w.net,
			Interactions: batch,
			// Writers race: a batch built first can arrive second. The
			// server parks the stragglers instead of failing the batch.
			AllowOutOfOrder: true,
		})
		if ctx.Err() != nil {
			return
		}
		w.metrics.ops.Add(1)
		if err != nil {
			w.metrics.opErrors.Add(1)
		}
	}
}

// report is the -out document: a go-test-bench-like envelope in which each
// op kind becomes one benchmark entry, plus the server-side /stats delta
// per touched route.
type report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

func buildReport(metrics map[string]*opMetrics, elapsed time.Duration, workers int,
	before, after flownet.StatsResult) report {
	rep := report{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Pkg:        "flownet/cmd/flowload",
		CPU:        fmt.Sprintf("%d logical CPUs", runtime.NumCPU()),
		Benchmarks: []benchmark{},
	}
	for _, kind := range append(append([]string{}, queryOps...), opIngest) {
		m, ok := metrics[kind]
		if !ok {
			continue
		}
		s := m.latency.Snapshot()
		ops := m.ops.Load()
		attempts := m.attempts.Load()
		if ops == 0 && attempts == 0 {
			continue // kind silenced by the -weights mix
		}
		vals := map[string]float64{
			"ops/s":   float64(ops) / elapsed.Seconds(),
			"p50-ms":  s.Quantile(0.50) * 1e3,
			"p95-ms":  s.Quantile(0.95) * 1e3,
			"p99-ms":  s.Quantile(0.99) * 1e3,
			"mean-ms": s.Mean() * 1e3,
		}
		vals["attempts"] = float64(attempts)
		vals["err-rate"] = rate(m.opErrors.Load(), ops)
		vals["shed-rate"] = rate(m.shed.Load(), attempts)
		vals["cache-hit-rate"] = rate(m.cacheHits.Load(), attempts)
		vals["transport-errors"] = float64(m.transport.Load())
		rep.Benchmarks = append(rep.Benchmarks, benchmark{
			Name: "Load/" + kind, Procs: workers, Runs: int64(ops), Metrics: vals,
		})
	}
	// The server's view of the same window, per route the run touched.
	routes := make([]string, 0, len(after.Endpoints))
	for route := range after.Endpoints {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		a, b := after.Endpoints[route], before.Endpoints[route]
		dReq := a.Requests - b.Requests
		if dReq == 0 {
			continue
		}
		vals := map[string]float64{
			"requests":   float64(dReq),
			"errors":     float64(a.Errors - b.Errors),
			"shed":       float64(a.Shed - b.Shed),
			"cache-hits": float64(a.CacheHits - b.CacheHits),
		}
		if dCount := a.LatencyCount - b.LatencyCount; dCount > 0 {
			vals["mean-ms"] = float64(a.LatencySumNs-b.LatencySumNs) / float64(dCount) / 1e6
		}
		// The server quantiles are lifetime, not window, but a load run
		// against a freshly booted server (the CI arrangement) makes them
		// the same thing.
		vals["p50-ms"], vals["p95-ms"], vals["p99-ms"] = a.P50LatencyMs, a.P95LatencyMs, a.P99LatencyMs
		rep.Benchmarks = append(rep.Benchmarks, benchmark{
			Name: "Server" + route, Procs: workers, Runs: int64(dReq), Metrics: vals,
		})
	}
	return rep
}

func rate(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func printSummary(w io.Writer, metrics map[string]*opMetrics, elapsed time.Duration,
	before, after flownet.StatsResult) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tops\tops/s\tp50 ms\tp95 ms\tp99 ms\terr%\tshed%\thit%")
	for _, kind := range append(append([]string{}, queryOps...), opIngest) {
		m, ok := metrics[kind]
		if !ok {
			continue
		}
		s := m.latency.Snapshot()
		ops, attempts := m.ops.Load(), m.attempts.Load()
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.1f\t%.1f\t%.1f\n",
			kind, ops, float64(ops)/elapsed.Seconds(),
			s.Quantile(0.50)*1e3, s.Quantile(0.95)*1e3, s.Quantile(0.99)*1e3,
			100*rate(m.opErrors.Load(), ops), 100*rate(m.shed.Load(), attempts),
			100*rate(m.cacheHits.Load(), attempts))
	}
	tw.Flush()

	fmt.Fprintln(w, "server /stats delta:")
	routes := make([]string, 0, len(after.Endpoints))
	for route := range after.Endpoints {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	stw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(stw, "route\trequests\terrors\tshed\tcache hits\tmean ms")
	for _, route := range routes {
		a, b := after.Endpoints[route], before.Endpoints[route]
		dReq := a.Requests - b.Requests
		if dReq == 0 {
			continue
		}
		mean := 0.0
		if dCount := a.LatencyCount - b.LatencyCount; dCount > 0 {
			mean = float64(a.LatencySumNs-b.LatencySumNs) / float64(dCount) / 1e6
		}
		fmt.Fprintf(stw, "%s\t%d\t%d\t%d\t%d\t%.2f\n",
			route, dReq, a.Errors-b.Errors, a.Shed-b.Shed, a.CacheHits-b.CacheHits, mean)
	}
	stw.Flush()
}
