package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"flownet/internal/hist"
)

// GET /metrics: the counters /stats already keeps, in the Prometheus text
// exposition format (version 0.0.4), hand-rolled — the format is a few
// lines of text and does not justify a client-library dependency. Gauges,
// counters, and one histogram family: per-route request latency is a full
// fixed-bucket histogram (flownet_request_latency_seconds _bucket/_sum/
// _count), with the _sum derived from the exact nanosecond counter — not
// reconstructed from a rounded average — so it matches /stats'
// latency_sum_ns to the last bit and dashboards get real p95/p99, not
// just a mean.

// promWriter accumulates one exposition body. Metric families must be
// written contiguously (# HELP / # TYPE once, then every sample), which the
// family method enforces by construction.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, help, typ string, samples func(add func(labels string, v float64))) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	samples(func(labels string, v float64) {
		p.b.WriteString(name)
		if labels != "" {
			p.b.WriteByte('{')
			p.b.WriteString(labels)
			p.b.WriteByte('}')
		}
		p.b.WriteByte(' ')
		p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		p.b.WriteByte('\n')
	})
}

// histogramFamily writes one histogram family: # HELP / # TYPE once, then
// per row the cumulative le-labelled buckets (ending in +Inf), the _sum
// (exact nanoseconds scaled to seconds) and the _count (the +Inf bucket's
// value by construction — hist.Snapshot.Count is the bucket sum).
func (p *promWriter) histogramFamily(name, help string, rows func(add func(labels string, s hist.Snapshot))) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	sample := func(suffix, labels string, v string) {
		p.b.WriteString(name)
		p.b.WriteString(suffix)
		if labels != "" {
			p.b.WriteByte('{')
			p.b.WriteString(labels)
			p.b.WriteByte('}')
		}
		p.b.WriteByte(' ')
		p.b.WriteString(v)
		p.b.WriteByte('\n')
	}
	rows(func(labels string, s hist.Snapshot) {
		cum := s.Cumulative()
		for i, bound := range s.Bounds {
			le := promLabel("le", strconv.FormatFloat(bound, 'g', -1, 64))
			if labels != "" {
				le = labels + "," + le
			}
			sample("_bucket", le, strconv.FormatUint(cum[i], 10))
		}
		inf := promLabel("le", "+Inf")
		if labels != "" {
			inf = labels + "," + inf
		}
		sample("_bucket", inf, strconv.FormatUint(s.Count, 10))
		sample("_sum", labels, strconv.FormatFloat(float64(s.SumNs)/1e9, 'g', -1, 64))
		sample("_count", labels, strconv.FormatUint(s.Count, 10))
	})
}

// promLabel renders one key="value" pair, escaping per the exposition
// format (backslash, double quote, newline).
func promLabel(key, value string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(value) + `"`
}

// handleMetrics answers GET /metrics. Like /stats and /healthz it is never
// shed and carries no deadline: the scraper must see the server precisely
// when it is overloaded.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter

	type routeStat struct {
		route   string
		st      EndpointStats
		latency hist.Snapshot
	}
	stats := make([]routeStat, 0, len(routes))
	for _, route := range routes {
		m := s.metrics[route]
		stats = append(stats, routeStat{route, m.snapshot(), m.latency.Snapshot()})
	}

	p.family("flownet_requests_total", "HTTP requests served, by route.", "counter", func(add func(string, float64)) {
		for _, rs := range stats {
			add(promLabel("route", rs.route), float64(rs.st.Requests))
		}
	})
	p.family("flownet_errors_total", "HTTP responses with status >= 400, by route.", "counter", func(add func(string, float64)) {
		for _, rs := range stats {
			add(promLabel("route", rs.route), float64(rs.st.Errors))
		}
	})
	p.family("flownet_shed_total", "Requests rejected by admission control (503 + Retry-After), by route.", "counter", func(add func(string, float64)) {
		for _, rs := range stats {
			add(promLabel("route", rs.route), float64(rs.st.Shed))
		}
	})
	p.family("flownet_cache_hits_total", "Responses replayed from the result cache, by route.", "counter", func(add func(string, float64)) {
		for _, rs := range stats {
			add(promLabel("route", rs.route), float64(rs.st.CacheHits))
		}
	})
	p.histogramFamily("flownet_request_latency_seconds", "Handler wall-clock time, by route (fixed buckets; the _sum is the raw nanosecond counter scaled to seconds, exactly /stats' latency_sum_ns).", func(add func(string, hist.Snapshot)) {
		for _, rs := range stats {
			add(promLabel("route", rs.route), rs.latency)
		}
	})
	p.family("flownet_panics_total", "Handler panics converted to 500s by the recovery middleware.", "counter", func(add func(string, float64)) {
		add("", float64(s.panics.Load()))
	})

	cs := s.cache.Stats()
	p.family("flownet_cache_entries", "Result cache entries currently held.", "gauge", func(add func(string, float64)) {
		add("", float64(cs.Len))
	})
	p.family("flownet_cache_capacity", "Result cache capacity in entries.", "gauge", func(add func(string, float64)) {
		add("", float64(cs.Capacity))
	})
	p.family("flownet_cache_lookups_total", "Result cache lookups, by outcome.", "counter", func(add func(string, float64)) {
		add(promLabel("outcome", "hit"), float64(cs.Hits))
		add(promLabel("outcome", "miss"), float64(cs.Misses))
	})
	p.family("flownet_cache_evictions_total", "Result cache LRU evictions.", "counter", func(add func(string, float64)) {
		add("", float64(cs.Evictions))
	})

	p.family("flownet_table_refreshes_total", "Stale PB path tables brought current, by method (update = patched forward from the ingest delta, rebuild = full precompute).", "counter", func(add func(string, float64)) {
		add(promLabel("method", "update"), float64(s.derived.tableUpdates.Load()))
		add(promLabel("method", "rebuild"), float64(s.derived.tableRebuilds.Load()))
	})
	p.family("flownet_cache_sweep_entries_total", "Cache lookups that met a response from before an ingest, by outcome (retained = served, its footprint untouched since; purged = refused as stale and recomputed).", "counter", func(add func(string, float64)) {
		add(promLabel("outcome", "retained"), float64(s.derived.cacheRetained.Load()))
		add(promLabel("outcome", "purged"), float64(s.derived.cachePurged.Load()))
	})

	st := s.store.Stats()
	p.family("flownet_store_wal_appends_total", "WAL records written across all networks.", "counter", func(add func(string, float64)) {
		add("", float64(st.WALAppends))
	})
	p.family("flownet_store_wal_fsyncs_total", "WAL fsync calls issued.", "counter", func(add func(string, float64)) {
		add("", float64(st.WALFsyncs))
	})
	p.family("flownet_store_snapshots_total", "Checkpoint snapshots taken.", "counter", func(add func(string, float64)) {
		add("", float64(st.Snapshots))
	})
	p.family("flownet_store_recoveries_total", "Networks recovered from the data directory at startup.", "counter", func(add func(string, float64)) {
		add("", float64(st.Recoveries))
	})

	shards := s.store.Shards()
	sort.Slice(shards, func(a, b int) bool { return shards[a].Name() < shards[b].Name() })
	p.family("flownet_network_degraded", "1 when the network cannot currently make writes durable (read-only pending repair, or failing checkpoints), else 0.", "gauge", func(add func(string, float64)) {
		for _, sh := range shards {
			d := sh.Durability()
			v := 0.0
			if d.WALError != "" || d.CheckpointError != "" {
				v = 1
			}
			add(promLabel("network", sh.Name()), v)
		}
	})
	p.family("flownet_network_wal_pending_bytes", "Bytes in the network's current WAL (replay cost of a crash right now).", "gauge", func(add func(string, float64)) {
		for _, sh := range shards {
			add(promLabel("network", sh.Name()), float64(sh.Durability().WALBytesPending))
		}
	})
	p.family("flownet_network_generation", "Current generation of the network (bumped by every observable ingest).", "gauge", func(add func(string, float64)) {
		for _, sh := range shards {
			add(promLabel("network", sh.Name()), float64(sh.Generation()))
		}
	})
	p.family("flownet_inflight_queries", "Query requests currently admitted past the -max-inflight gate.", "gauge", func(add func(string, float64)) {
		if s.inflight != nil {
			add("", float64(len(s.inflight)))
		} else {
			add("", 0)
		}
	})
	p.family("flownet_uptime_seconds", "Seconds since the server started.", "gauge", func(add func(string, float64)) {
		add("", time.Since(s.started).Seconds())
	})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(p.b.String()))
}
