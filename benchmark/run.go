package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flownet"
)

// This file runs one workload once: corpus, set-up, measured phase,
// correctness gate and, in a traced run, the traced passes and probes.

// setupRuns is how many times a run sets up and times it; setup_s is the
// median.
const setupRuns = 3

// runConfig is what one run depends on. Seed is the only input the
// generated load depends on; the corpus is fixed (corpusSeed).
type runConfig struct {
	Workload *workload
	Seed     int64
	Seconds  int
	Trace    bool
	Small    bool // tests only: 300-vertex corpora
	Setups   int  // tests only: set-ups per run, 0 meaning setupRuns
}

// run is the state of one run.
type run struct {
	runConfig
	env   *env
	m     *metrics
	n     *flownet.Network // the corpus, mirrored forward as writes are acknowledged
	shape corpusShape
	text  string // the corpus as a text file, as flownetd loads it
	srv   *child
	ref   *engine // the untraced in-process reference
}

func runWorkload(ctx context.Context, e *env, cfg runConfig) (*metrics, error) {
	cfg.Workload = cfg.Workload.sized(cfg.Small)
	r := &run{runConfig: cfg, env: e, m: newMetrics(cfg.Workload.Name)}
	err := r.do(ctx)
	if r.srv != nil {
		e.stop(r.srv)
	}
	return r.m, err
}

func (r *run) do(ctx context.Context) error {
	wl, m := r.Workload, r.m

	// The corpus goes to flownetd as a text file, and the reference reads
	// that same file back: interactions with equal timestamps are ordered by
	// insertion, which a text round trip changes, and with it some flows.
	t0 := time.Now()
	generated := wl.generate()
	generate := time.Since(t0)
	dir, err := os.MkdirTemp(r.env.tmp, wl.Name+"-")
	if err != nil {
		return err
	}
	r.text = filepath.Join(dir, "corpus.txt")
	if err := flownet.SaveNetwork(r.text, generated); err != nil {
		return err
	}
	t0 = time.Now()
	if r.n, err = flownet.LoadNetwork(r.text); err != nil {
		return err
	}
	loadText := time.Since(t0)
	r.shape = corpusShape{NumV: r.n.NumVertices(), MaxTime: r.n.MaxTime()}
	r.ref = &engine{n: r.n}

	// Set-up, several times over: exec flownetd on the text corpus, wait
	// for /healthz, warm up. The last server stays for the measurement.
	nSetups := r.Setups
	if nSetups == 0 {
		nSetups = setupRuns
	}
	var setups []float64
	var readers []*loadClient
	dataDir := ""
	for i := 0; i < nSetups; i++ {
		if r.srv != nil {
			r.env.stop(r.srv)
		}
		if wl.DataDir {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", i))
		}
		t0 := time.Now()
		if r.srv, err = r.env.start(r.serverArgs(dataDir)...); err != nil {
			return err
		}
		readers = r.newReaders()
		if err := warmUp(ctx, readers, wl.Warmup); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.e2e("setup_s", median(setups), "s", len(setups))

	// The measured phase, tracing off.
	var writer *loadClient
	if wl.IngestPerSec > 0 {
		writer = newLoadClient(r.srv.url(), newOpStream(r.Seed, wl, writerStream, r.shape))
	}
	ph, err := measure(ctx, wl, r.srv, readers, writer, time.Duration(r.Seconds)*time.Second)
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(r.srv.pid())
	if err != nil {
		return err
	}
	r.gate(ph)
	m.Attempted, m.Failed = ph.counts()
	r.reportEndToEnd(ph, rss)

	// Writes the server acknowledged are part of the corpus from here on.
	if err := r.mirror(ph.Sent); err != nil {
		return err
	}
	if r.Trace {
		m.layer("datagen.generate_s", generate.Seconds(), "s")
		m.layer("tin.load_text_s", loadText.Seconds(), "s")
		r.reportPhaseLayers(ph)
		if err := r.tracedPasses(ctx); err != nil {
			return err
		}
		if err := r.probes(dir); err != nil {
			return err
		}
	}
	if wl.DataDir {
		if err := r.crashAndRecover(ctx, dataDir); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) serverArgs(dataDir string) []string {
	args := []string{"-net", netName + "=" + r.text}
	args = append(args, r.Workload.ServerArgs...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

func (r *run) newReaders() []*loadClient {
	readers := make([]*loadClient, r.Workload.Clients)
	for i := range readers {
		readers[i] = newLoadClient(r.srv.url(), newOpStream(r.Seed, r.Workload, i, r.shape))
	}
	return readers
}

// warmUp sends each client's first n operations, all clients at once.
func warmUp(ctx context.Context, clients []*loadClient, n int) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			errs[i] = c.runOps(ctx, n)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gate is the correctness gate of the measured phase: every checkEvery-th
// answer of each reader is recomputed in-process and must match. A wrong
// answer marks its operation failed. Reads that raced the writer cannot be
// recomputed (the reference does not know which batches they saw);
// ingest_mix is gated on its end state instead, in crashAndRecover.
func (r *run) gate(ph *phase) {
	if ph.Writer != nil {
		return
	}
	for _, c := range ph.Readers {
		for _, ck := range c.checks {
			want, err := r.ref.do(ck.Op)
			if err == nil {
				err = sameAnswer(ck.Op, ck.Ans, want)
			}
			if err == nil && ck.Op.Kind == opSuite {
				err = suiteConsistent(ck.Ans)
			}
			if err != nil {
				c.samples[ck.idx].Failed = true
				r.m.violate("%s: %v", ck.Op, err)
			}
		}
	}
}

// suiteConsistent checks the paper's §6.3 premise on one suite's answers:
// graph browsing and the precomputed tables find the same instances and
// the same total flow.
func suiteConsistent(ans answer) error {
	gb := map[string]flownet.PatternResult{}
	for _, p := range ans.Pattern {
		if p.Mode == "gb" {
			gb[p.Pattern] = p
		}
	}
	for _, p := range ans.Pattern {
		g, ok := gb[p.Pattern]
		if p.Mode == "pb" && ok && (g.Instances != p.Instances || !closeEnough(g.TotalFlow, p.TotalFlow)) {
			return fmt.Errorf("%s: GB %d instances flow %v, PB %d instances flow %v", p.Pattern, g.Instances, g.TotalFlow, p.Instances, p.TotalFlow)
		}
	}
	return nil
}

func (r *run) reportEndToEnd(ph *phase, rssMB float64) {
	wl, m := r.Workload, r.m
	m.e2e("ops_per_s", ph.queryRate(), "1/s", throughputSlices)
	prim := ph.latenciesMs(wl.Primary, wl.PrimaryMissOnly)
	m.e2e("primary_p50_ms", percentile(prim, 50), "ms", len(prim))
	sec := ph.latenciesMs(wl.Secondary, false)
	m.e2e("secondary_p50_ms", percentile(sec, 50), "ms", len(sec))
	m.e2e("peak_rss_mb", rssMB, "MB", 0)

	// The same figures under the names of the operations they belong to,
	// with the highest tail each sample supports.
	for k := opKind(0); k < numKinds; k++ {
		lat := ph.latenciesMs(k, k == wl.Primary && wl.PrimaryMissOnly)
		if len(lat) == 0 {
			continue
		}
		m.extra(k.String()+"_p50_ms", percentile(lat, 50), "ms", len(lat))
		top := supportedTail(len(lat), 99)
		for _, p := range []float64{90, 95, 99} {
			if p <= top {
				m.extra(fmt.Sprintf("%s_p%g_ms", k, p), percentile(lat, p), "ms", len(lat))
			}
		}
	}
	if ph.Writer != nil {
		var late []float64
		for _, s := range ph.Writer.samples {
			late = append(late, float64(s.LateNs)/1e6)
		}
		if p := supportedTail(len(late), 99); p > 0 {
			m.extra(fmt.Sprintf("ingest.late_ms_p%g", p), percentile(sortedCopy(late), p), "ms", len(late))
		}
		r.reportReadDuringWrite(ph)
	}
}

// reportReadDuringWrite splits the readers' samples by whether an ingest
// was in flight at any point of their interval, by the client's clocks. It
// reports means, not medians: a closed-loop reader stalled behind the write
// lock contributes one slow sample per stall, which a median never sees.
func (r *run) reportReadDuringWrite(ph *phase) {
	var during, quiet []float64
	w := ph.Writer.samples
	for _, c := range ph.Readers {
		for _, s := range c.samples {
			if s.Failed || s.Kind != r.Workload.Primary {
				continue
			}
			overlap := false
			for _, ws := range w {
				sent := ws.StartNs + ws.LateNs
				if sent < s.endNs() && s.StartNs < ws.endNs() {
					overlap = true
					break
				}
			}
			if overlap {
				during = append(during, float64(s.DurNs)/1e6)
			} else {
				quiet = append(quiet, float64(s.DurNs)/1e6)
			}
		}
	}
	if len(during) > 0 {
		r.m.extra("stream.read_during_write_mean_ms", mean(during), "ms", len(during))
	}
	if len(quiet) > 0 {
		r.m.extra("stream.read_quiet_mean_ms", mean(quiet), "ms", len(quiet))
	}
}

// mirror applies acknowledged ingest operations to the in-process corpus.
// The batches are in time order, so one append of them all leaves the
// network in the state the server reached batch by batch.
func (r *run) mirror(sent []op) error {
	var items []flownet.BatchItem
	for _, o := range sent {
		items = append(items, batchItems(o.Items)...)
	}
	if len(items) == 0 {
		return nil
	}
	_, err := r.n.AppendBatch(items)
	r.ref.tables = nil
	return err
}

// recoverySample is how many seed answers are compared before the crash,
// against the reference, and again after the restart.
const recoverySample = 32

// crashAndRecover is ingest_mix's end-state gate: the server's answers on
// a sample of seeds must equal the reference's on the mirrored corpus, the
// server must hold every acknowledged interaction, and after a SIGKILL and
// a restart from the data directory both must still be true.
func (r *run) crashAndRecover(ctx context.Context, dataDir string) error {
	m := r.m
	s := newOpStream(r.Seed, r.Workload, probeStream, r.shape)
	ops := make([]op, recoverySample, recoverySample+2)
	for i := range ops {
		ops[i] = op{Kind: opSeed, V: s.rng.Intn(r.shape.NumV)}
	}
	// And the PB searches whose tables the ingests left stale.
	ops = append(ops, op{Kind: opPattern, Pattern: "P2"}, op{Kind: opPattern, Pattern: "P3"})
	ask := func() ([]answer, int, error) {
		c := newLoadClient(r.srv.url(), s)
		out := make([]answer, len(ops))
		for i, o := range ops {
			var err error
			if out[i], _, err = c.do(ctx, o); err != nil {
				return nil, 0, err
			}
		}
		nets, err := c.api.Networks(ctx)
		return out, nets[netName].Interactions, err
	}
	before, held, err := ask()
	if err != nil {
		return err
	}
	m.Attempted += len(ops)
	for i, o := range ops {
		want, err := r.ref.do(o)
		if err == nil {
			err = sameAnswer(o, before[i], want)
		}
		if err != nil {
			m.Failed++
			m.violate("after ingest, %s: %v", o, err)
		}
	}
	if want := r.n.NumInteractions(); held != want {
		m.violate("server holds %d interactions before the crash, %d were acknowledged", held, want)
	}

	r.env.stop(r.srv) // SIGKILL
	t0 := time.Now()
	if r.srv, err = r.env.start(r.serverArgs(dataDir)...); err != nil {
		return fmt.Errorf("restart from %s: %w", dataDir, err)
	}
	m.extra("store.restart_s", time.Since(t0).Seconds(), "s", 0)
	after, held, err := ask()
	if err != nil {
		return err
	}
	m.Attempted += len(ops)
	for i, o := range ops {
		if err := sameAnswer(o, after[i], before[i]); err != nil {
			m.Failed++
			m.violate("after restart, %s: %v", o, err)
		}
	}
	lost := r.n.NumInteractions() - held
	m.extra("store.acked_lost", float64(lost), "count", 0)
	if lost != 0 {
		m.violate("%d acknowledged interactions missing after SIGKILL and restart", lost)
	}
	return nil
}
