package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"flownet"
)

// This file is the load generator: closed-loop query clients (an analyst
// waits for each reply before asking again) and, for ingest_mix, one
// open-loop writer (a feed does not wait for the service).

// netName is the name the corpus is served under.
const netName = "bench"

// answer is what one operation returned, kept for the correctness gate.
type answer struct {
	Flow    flownet.FlowResult
	Batch   flownet.BatchResult
	Pattern []flownet.PatternResult
	Ingest  flownet.IngestResult
}

// sample is one completed operation as the client saw it.
type sample struct {
	Kind    opKind
	Hit     bool  // answered from the server's response cache
	Failed  bool  // refused, failed, timed out (or, later, found wrong)
	StartNs int64 // offset from the phase start; for the writer, the due time
	DurNs   int64 // until the reply was read and decoded
	HTTPNs  int64 // of that, inside HTTP exchanges (sent → body read)
	LateNs  int64 // writer only: how long after its due time it was sent
}

func (s sample) endNs() int64 { return s.StartNs + s.DurNs }

// checkEvery is the stride of the correctness gate: every 64th answer of
// each client is kept and recomputed in-process after the phase.
const checkEvery = 64

type checked struct {
	Op  op
	Ans answer
	idx int // index into the client's samples, to mark a wrong answer failed
}

// loadClient is one connection's worth of client: its own http.Client
// limited to one connection, its own op stream, its own sample log.
// Nothing here is shared between goroutines while a phase runs.
type loadClient struct {
	api    *flownet.Client
	stream *opStream

	tr *tracer // non-nil only in a traced pass

	samples  []sample
	checks   []checked
	calls    int // API calls made (an opSuite makes eleven)
	attempts int // HTTP exchanges, retries included
	transErr int // exchanges that died before a status
	lastHit  bool
	httpNs   int64 // sum of attempt durations of the op in flight
}

func newLoadClient(baseURL string, stream *opStream) *loadClient {
	c := &loadClient{stream: stream}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c.api = flownet.NewClient(baseURL).
		WithHTTPClient(&http.Client{Transport: tr, Timeout: flownet.DefaultTimeout}).
		WithObserver(func(a flownet.Attempt) {
			c.attempts++
			if a.Status == 0 {
				c.transErr++
			}
			c.lastHit = a.CacheStatus == "hit"
			c.httpNs += int64(a.Duration)
			c.tr.add("client", "client.http", time.Now(), a.Duration)
		})
	return c
}

// do sends one operation and returns its answer. hit reports whether the
// last HTTP response came from the server's cache (the only response, for
// every kind whose samples are split by it).
func (c *loadClient) do(ctx context.Context, o op) (ans answer, hit bool, err error) {
	c.httpNs = 0
	c.calls++
	switch o.Kind {
	case opSeed, opSeedWin:
		ans.Flow, err = c.api.SeedFlow(ctx, netName, flownet.VertexID(o.V), flowOpts(o))
	case opPair, opPairWin:
		ans.Flow, err = c.api.Flow(ctx, netName, flownet.VertexID(o.V), flownet.VertexID(o.W), flowOpts(o))
	case opBatch:
		ans.Batch, err = c.api.BatchFlowSeeds(ctx, flownet.BatchRequest{Network: netName, Seeds: o.Seeds, MaxInteractions: o.MaxIA})
	case opPattern:
		var r flownet.PatternResult
		r, err = c.api.Patterns(ctx, netName, o.Pattern, "pb", &flownet.PatternQueryOptions{MaxInstances: patternBound})
		ans.Pattern = []flownet.PatternResult{r}
	case opSuite:
		// max= far above any instance count: exhaustive, yet a new cache
		// key per suite, so every search is computed.
		opts := &flownet.PatternQueryOptions{MaxInstances: suiteMax(o)}
		qs := suiteQueries()
		c.calls += len(qs) - 1
		for _, q := range qs {
			var r flownet.PatternResult
			if r, err = c.api.Patterns(ctx, netName, q.Pattern, q.Mode, opts); err != nil {
				break
			}
			ans.Pattern = append(ans.Pattern, r)
		}
	case opIngest:
		ans.Ingest, err = c.api.Ingest(ctx, flownet.IngestRequest{Network: netName, Interactions: o.Items})
	}
	return ans, c.lastHit, err
}

func suiteMax(o op) int64 { return int64(1<<40 + o.Nonce) }

type suiteQuery struct{ Pattern, Mode string }

func suiteQueries() []suiteQuery {
	var qs []suiteQuery
	for _, p := range suiteGB {
		qs = append(qs, suiteQuery{p, "gb"})
	}
	for _, p := range suitePB {
		qs = append(qs, suiteQuery{p, "pb"})
	}
	return qs
}

func flowOpts(o op) *flownet.FlowQueryOptions {
	opts := &flownet.FlowQueryOptions{MaxInteractions: o.MaxIA}
	if o.Kind == opSeedWin || o.Kind == opPairWin {
		opts.WindowFrom, opts.WindowTo = &o.From, &o.To
	}
	return opts
}

// runOps sends exactly n operations (warm-up, traced passes). Failures are
// returned: outside the measured phase nothing may fail.
func (c *loadClient) runOps(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		o := c.stream.next()
		if _, _, err := c.do(ctx, o); err != nil {
			return fmt.Errorf("%s: %w", o, err)
		}
	}
	return nil
}

// runClosedLoop sends operations back to back until the phase ends,
// logging one sample each. An operation in flight at the end completes and
// is logged; slicing drops the part of it that lies beyond the end from the
// throughput.
func (c *loadClient) runClosedLoop(ctx context.Context, start time.Time, d time.Duration) {
	c.calls, c.attempts, c.transErr = 0, 0, 0 // forget the warm-up
	for time.Since(start) < d {
		o := c.stream.next()
		t0 := time.Now()
		ans, hit, err := c.do(ctx, o)
		s := sample{Kind: o.Kind, Hit: hit, Failed: err != nil, StartNs: int64(t0.Sub(start)), DurNs: int64(time.Since(t0)), HTTPNs: c.httpNs}
		if len(c.samples)%checkEvery == checkEvery-1 && err == nil {
			c.checks = append(c.checks, checked{Op: o, Ans: ans, idx: len(c.samples)})
		}
		c.samples = append(c.samples, s)
	}
}

// runOpenLoop sends n operations on a fixed schedule of perSec per second,
// whatever the replies do. Latency runs from the due time, so a stall is
// charged to every operation it delayed; LateNs records how far behind
// schedule the generator itself ran. It returns the operations the server
// acknowledged, so the caller can mirror them; a rejected one is a failed
// operation and no part of the corpus.
func (c *loadClient) runOpenLoop(ctx context.Context, start time.Time, n, perSec int) []op {
	sent := make([]op, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / time.Duration(perSec))
		time.Sleep(time.Until(due))
		o := c.stream.next()
		t0 := time.Now()
		_, _, err := c.do(ctx, o)
		c.samples = append(c.samples, sample{Kind: o.Kind, Failed: err != nil,
			StartNs: int64(due.Sub(start)), DurNs: int64(time.Since(due)), HTTPNs: c.httpNs, LateNs: int64(t0.Sub(due))})
		if err == nil {
			sent = append(sent, o)
		}
	}
	return sent
}

// phase is one measured phase's raw result.
type phase struct {
	Dur     time.Duration
	Readers []*loadClient
	Writer  *loadClient // nil without a writer
	Sent    []op        // the writer's acknowledged operations, in order

	Before, After flownet.StatsResult // /stats around the phase
	CPU           time.Duration       // server CPU consumed during the phase
}

// measure runs the workload's clients (and writer) against c for d.
func measure(ctx context.Context, wl *workload, c *child, readers []*loadClient, writer *loadClient, d time.Duration) (*phase, error) {
	ctl := flownet.NewClient(c.url())
	p := &phase{Dur: d, Readers: readers, Writer: writer}
	var err error
	if p.Before, err = ctl.Stats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, r := range readers {
		wg.Add(1)
		go func(r *loadClient) {
			defer wg.Done()
			r.runClosedLoop(ctx, start, d)
		}(r)
	}
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Sent = writer.runOpenLoop(ctx, start, wl.IngestPerSec*int(d/time.Second), wl.IngestPerSec)
		}()
	}
	wg.Wait()
	cpu1, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	p.CPU = cpu1 - cpu0
	if p.After, err = quiescedStats(ctx, ctl); err != nil {
		return nil, err
	}
	return p, nil
}

// quiescedStats reads /stats once every route's deferred latency record
// has caught up with its request counter (it lags the response by a few
// instructions).
func quiescedStats(ctx context.Context, ctl *flownet.Client) (flownet.StatsResult, error) {
	for i := 0; ; i++ {
		st, err := ctl.Stats(ctx)
		if err != nil {
			return st, err
		}
		settled := true
		for route, ep := range st.Endpoints {
			if route != "/stats" && ep.LatencyCount != ep.Requests {
				settled = false
			}
		}
		if settled || i == 100 {
			return st, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// latenciesMs returns the ascending latencies in ms of the successful
// samples of one kind, over all readers (or the writer for opIngest).
// missOnly drops responses replayed from the cache.
func (p *phase) latenciesMs(kind opKind, missOnly bool) []float64 {
	var out []float64
	for _, c := range p.clients() {
		for _, s := range c.samples {
			if s.Kind != kind || s.Failed || (missOnly && s.Hit) {
				continue
			}
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phase) clients() []*loadClient {
	if p.Writer == nil {
		return p.Readers
	}
	return append(append([]*loadClient(nil), p.Readers...), p.Writer)
}

// counts returns the operations attempted and failed in the phase.
func (p *phase) counts() (attempted, failed int) {
	for _, c := range p.clients() {
		for _, s := range c.samples {
			attempted++
			if s.Failed {
				failed++
			}
		}
	}
	return
}

// throughputSlices is how many equal slices a phase is cut into; the
// reported throughput is the median slice, which one stall cannot move.
// Three, not more: paper_eval completes 16 operations a second that cost
// between 5 and 400 ms, and with five slices the mix of operations each
// slice happened to hold doubled the run-to-run spread of the median.
const throughputSlices = 3

// queryRate returns the closed-loop clients' successful operations per
// second: the median over the phase's slices.
func (p *phase) queryRate() float64 {
	var starts, ends []int64
	for _, c := range p.Readers {
		for _, s := range c.samples {
			if !s.Failed {
				starts, ends = append(starts, s.StartNs), append(ends, s.endNs())
			}
		}
	}
	return median(sliceRates(starts, ends, int64(p.Dur), throughputSlices))
}
