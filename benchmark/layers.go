package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"flownet"
)

// This file turns a traced run into per-layer numbers, from three sources:
// the /stats delta of the measured phase, two traced passes over the same
// operations (once over HTTP, once in-process), and the probes.

// routes are the flownetd endpoints the load generator uses.
var routes = []string{"/flow", "/flow/batch", "/patterns", "/ingest"}

// statsDelta is what the server counted between two /stats reads.
type statsDelta struct {
	Requests, Errors, Shed uint64
	HandlerNs              int64
	PerRoute               map[string]flownet.EndpointStats // deltas of the same fields
}

func deltaOf(before, after flownet.StatsResult) statsDelta {
	d := statsDelta{PerRoute: map[string]flownet.EndpointStats{}}
	for _, route := range routes {
		a, b := after.Endpoints[route], before.Endpoints[route]
		r := flownet.EndpointStats{Requests: a.Requests - b.Requests, Errors: a.Errors - b.Errors, Shed: a.Shed - b.Shed,
			LatencySumNs: a.LatencySumNs - b.LatencySumNs, LatencyCount: a.LatencyCount - b.LatencyCount}
		d.PerRoute[route] = r
		d.Requests += r.Requests
		d.Errors += r.Errors
		d.Shed += r.Shed
		d.HandlerNs += r.LatencySumNs
	}
	return d
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// reportPhaseLayers reads the layers off the measured phase: what the
// server counted in /stats against what the clients saw, the process's CPU
// time, and the cache, store and derived-state counters.
func (r *run) reportPhaseLayers(ph *phase) {
	m := r.m
	d := deltaOf(ph.Before, ph.After)
	var httpNs int64
	var calls, attempts, transErr int
	for _, c := range ph.clients() {
		for _, s := range c.samples {
			httpNs += s.HTTPNs
		}
		calls, attempts, transErr = calls+c.calls, attempts+c.attempts, transErr+c.transErr
	}
	reqs := float64(d.Requests)
	m.layer("client.wire_us_per_op", ratio(float64(httpNs-d.HandlerNs)/1e3, reqs), "us/op")
	m.layer("client.primary_tail_ms", percentile(ph.latenciesMs(r.Workload.Primary, r.Workload.PrimaryMissOnly), r.Workload.TailPct), "ms")
	m.layer("client.retries_per_kop", ratio(1000*float64(attempts-calls), float64(calls)), "count")
	m.layer("client.transport_errors", float64(transErr), "count")
	m.layer("server.handler_us_per_op", ratio(float64(d.HandlerNs)/1e3, reqs), "us/op")
	for _, route := range routes {
		if ep := d.PerRoute[route]; ep.Requests > 0 {
			m.extra("server.handler_us_per_op."+route, float64(ep.LatencySumNs)/1e3/float64(ep.Requests), "us/op", int(ep.Requests))
		}
	}
	m.layer("server.cpu_ms_per_op", ratio(millis(ph.CPU), reqs), "ms/op")
	m.layer("server.shed_per_kop", ratio(1000*float64(d.Shed), reqs), "count")
	m.layer("server.errors_per_kop", ratio(1000*float64(d.Errors), reqs), "count")

	cb, ca := ph.Before.Cache, ph.After.Cache
	hits, misses := float64(ca.Hits-cb.Hits), float64(ca.Misses-cb.Misses)
	m.layer("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.layer("cache.evictions", float64(ca.Evictions-cb.Evictions), "count")
	db, da := ph.Before.Derived, ph.After.Derived
	kept, purged := float64(da.CacheRetained-db.CacheRetained), float64(da.CachePurged-db.CachePurged)
	m.layer("cache.retained_ratio", ratio(kept, kept+purged), "ratio")
	m.layer("pattern.table_updates", float64(da.TableUpdates-db.TableUpdates), "count")
	m.layer("pattern.table_rebuilds", float64(da.TableRebuilds-db.TableRebuilds), "count")
	m.layer("store.wal_appends", float64(ph.After.Store.WALAppends-ph.Before.Store.WALAppends), "count")
	m.layer("store.snapshots", float64(ph.After.Store.Snapshots-ph.Before.Store.Snapshots), "count")
}

// hitProbe is how many recent operations are sent a second time to time
// the response cache's hit path.
const hitProbe = 64

// tracedPasses replays TraceK operations the measured phase never sent,
// twice with spans on: over HTTP with one client against the warm server,
// then in-process against the same corpus. Every served answer is compared
// with the in-process one.
func (r *run) tracedPasses(ctx context.Context) error {
	wl, m := r.Workload, r.m
	ctl := flownet.NewClient(r.srv.url())
	stream := newOpStream(r.Seed, wl, traceStream, r.shape)
	c := newLoadClient(r.srv.url(), stream)

	// Pass 1, over HTTP: client.op → client.http; the handler's share of
	// client.http comes from the /stats delta.
	before, err := ctl.Stats(ctx)
	if err != nil {
		return err
	}
	c.tr = newTracer()
	ops := make([]op, wl.TraceK)
	served := make([]answer, wl.TraceK)
	hit := make([]bool, wl.TraceK)
	t0 := time.Now()
	for i := range ops {
		ops[i] = stream.next()
		sp := c.tr.begin("client", "client.op")
		served[i], hit[i], err = c.do(ctx, ops[i])
		c.tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced pass: %s: %w", ops[i], err)
		}
	}
	httpWall := time.Since(t0)
	httpSpans := c.tr.spans
	c.tr = nil
	after, err := quiescedStats(ctx, ctl)
	if err != nil {
		return err
	}
	handlerNs := deltaOf(before, after).HandlerNs

	// The hit path: the most recent primary operations, asked again.
	var hitUs []float64
	for i := len(ops) - 1; i >= 0 && len(hitUs) < hitProbe; i-- {
		if ops[i].Kind != wl.Primary {
			continue
		}
		if _, again, err := c.do(ctx, ops[i]); err != nil {
			return err
		} else if again {
			hitUs = append(hitUs, float64(c.httpNs)/1e3)
		}
	}
	if len(hitUs) == 0 {
		return fmt.Errorf("traced pass: none of the last %d %s operations was answered from the cache when asked again", hitProbe, wl.Primary)
	}
	m.layer("cache.hit_p50_us", median(hitUs), "us")

	// Pass 2, in-process, over the operations the server computed rather
	// than replayed: op → tin.extract → core.presim | teg.maxflow →
	// server.encode (batches and pattern searches are one call each).
	e := &engine{n: r.n}
	for _, o := range ops {
		if o.Kind == opPattern || o.Kind == opSuite {
			e.getTables() // the server built its tables before the pass, too
			break
		}
	}
	e.tr = newTracer()
	var computed []int
	for i, o := range ops {
		if hit[i] {
			continue
		}
		computed = append(computed, i)
		sp := e.tr.begin("bench", "op")
		want, err := e.do(o)
		if err == nil {
			e.encode(o, want)
		}
		e.tr.end(sp)
		if err == nil {
			err = sameAnswer(o, served[i], want)
		}
		if err != nil {
			m.violate("traced pass: %s: %v", o, err)
		}
	}
	inSpans := e.tr.spans
	e.tr = nil
	allocs := allocsDuring(func() {
		for _, i := range computed {
			e.encode(ops[i], served[i])
		}
	})
	m.layer("server.encode_allocs_per_op", float64(allocs)/float64(max(1, len(computed))), "count")
	return r.reportPasses(httpSpans, inSpans, e, handlerNs, httpWall, len(ops), len(computed))
}

// solveSpans are the span names that make up the engine layers' work.
var solveSpans = []string{"core.presim", "teg.maxflow", "par.batch_seeds", "pattern.search_gb", "pattern.search_pb"}

// spanCostSamples is how many begin/end pairs calibrate the tracer's cost.
const spanCostSamples = 100000

// reportPasses prints the per-layer table of both passes — self time per
// operation — and writes the spans out.
func (r *run) reportPasses(httpSpans, inSpans []span, e *engine, handlerNs int64, httpWall time.Duration, nOps, nComputed int) error {
	m := r.m
	per := float64(max(1, nComputed))
	in := layerTotals(inSpans)
	var inprocNs, solveNs int64
	for _, t := range in {
		inprocNs += t.SelfNs
	}
	for _, name := range solveSpans {
		solveNs += in[name].SelfNs
	}
	m.layer("server.overhead_us_per_op", float64(handlerNs-inprocNs)/1e3/per, "us/op")
	m.layer("server.encode_us_per_op", float64(in["server.encode"].SelfNs)/1e3/per, "us/op")
	m.layer("engine.solve_us_per_op", float64(solveNs)/1e3/per, "us/op")

	ht := layerTotals(httpSpans)
	m.extra("trace.http.client.op_self_us_per_op", float64(ht["client.op"].SelfNs)/1e3/float64(nOps), "us/op", ht["client.op"].Spans)
	m.extra("trace.http.client.http_us_per_op", float64(ht["client.http"].SelfNs)/1e3/float64(nOps), "us/op", ht["client.http"].Spans)
	m.extra("trace.http.server.handler_us_per_op", float64(handlerNs)/1e3/float64(nOps), "us/op", nOps)
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.extra("trace.inproc."+name+"_self_us_per_op", float64(in[name].SelfNs)/1e3/per, "us/op", in[name].Spans)
	}
	if len(e.sizes) > 0 {
		s := make([]float64, len(e.sizes))
		for i, v := range e.sizes {
			s[i] = float64(v)
		}
		sort.Float64s(s)
		m.extra("trace.inproc.subgraph_interactions_p50", percentile(s, 50), "count", len(s))
	}
	share := map[string]int{}
	for _, c := range e.classes {
		share[c]++
	}
	for _, c := range []string{"A", "B", "C", "teg"} {
		if share[c] > 0 {
			m.extra("trace.inproc.class_share."+c, float64(share[c])/float64(len(e.classes)), "ratio", share[c])
		}
	}

	// What tracing itself cost: the measured price of a span, times the
	// spans of the HTTP pass, as a share of that pass.
	cal := newTracer()
	t0 := time.Now()
	for i := 0; i < spanCostSamples; i++ {
		cal.end(cal.begin("bench", "calibrate"))
	}
	perSpan := float64(time.Since(t0)) / spanCostSamples
	m.layer("trace.overhead_pct", 100*perSpan*float64(len(httpSpans))/float64(httpWall), "%")

	return writeTrace(r.env.outPath("trace-"+r.Workload.Name+".json"), map[string][]span{"http": httpSpans, "inprocess": inSpans})
}

// probes runs the per-layer probes on the workload's corpus.
func (r *run) probes(dir string) error {
	m := r.m
	s := newOpStream(r.Seed, r.Workload, probeStream, r.shape)
	s.clock = r.n.MaxTime() // the corpus may have grown since it was generated
	bin := filepath.Join(dir, "corpus.tinb")
	if err := probeLoad(m, r.n, bin); err != nil {
		return err
	}
	if err := probeExtractAndCore(m, r.n, s); err != nil {
		return err
	}
	probePairExtract(m, r.n, s)
	if err := probePatterns(m, r.n); err != nil {
		return err
	}
	return probeAppend(m, bin, filepath.Join(dir, "probe-store"), s)
}
