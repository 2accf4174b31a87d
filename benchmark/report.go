package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// This file names every metric the benchmark reports and collects one
// run's values. BENCHMARK.json carries the same lists (a test keeps the two
// in step); the regression bounds live only there.

// metricSpec declares one metric: its name, unit and which way is better.
type metricSpec struct {
	Name, Unit, Better string
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and where — the prediction written down before measuring.
	Moves string
}

// endToEnd are the metrics a user of the service sees. Every workload
// reports every one; "primary" and "secondary" are the workload's two
// operations (workloads.go), so the same name gates seed lookups on
// point_lookup and whole-component pair solves on pair_heavy.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "primary_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "secondary_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<what>. Each is measured on every workload, on that workload's
// corpus; where a workload's own traffic never enters the layer the
// prediction for any change there is "flat".
var perLayer = []metricSpec{
	{"client.wire_us_per_op", "us/op", "lower", "primary_p50_ms and ops_per_s on point_lookup; flat on pair_heavy and paper_eval"},
	{"client.primary_tail_ms", "ms", "lower", "none: the tail itself, not gated (its run-to-run spread is the widest of the client's figures)"},
	{"client.retries_per_kop", "count", "lower", "failed share, every workload"},
	{"client.transport_errors", "count", "lower", "failed share, every workload"},
	{"server.handler_us_per_op", "us/op", "lower", "the matching *_p50_ms"},
	{"server.overhead_us_per_op", "us/op", "lower", "primary_p50_ms on point_lookup; flat on pair_heavy"},
	{"server.encode_us_per_op", "us/op", "lower", "primary_p50_ms and secondary_p50_ms on point_lookup"},
	{"server.encode_allocs_per_op", "count", "lower", "primary_p50_ms and secondary_p50_ms on point_lookup"},
	{"server.cpu_ms_per_op", "ms/op", "lower", "ops_per_s, every workload"},
	{"server.shed_per_kop", "count", "lower", "failed share"},
	{"server.errors_per_kop", "count", "lower", "failed share"},
	{"cache.hit_ratio", "ratio", "higher", "ops_per_s on point_lookup"},
	{"cache.evictions", "count", "lower", "ops_per_s on point_lookup"},
	{"cache.hit_p50_us", "us", "lower", "the floor of the wire path: ops_per_s on point_lookup"},
	{"cache.retained_ratio", "ratio", "higher", "primary_p50_ms and ops_per_s on ingest_mix"},
	{"engine.solve_us_per_op", "us/op", "lower", "primary_p50_ms on pair_heavy and paper_eval, client.primary_tail_ms on point_lookup"},
	{"tin.extract_seed_us_per_op", "us/op", "lower", "primary_p50_ms on point_lookup, ops_per_s on paper_eval"},
	{"tin.extract_seed_allocs_per_op", "count", "lower", "primary_p50_ms on point_lookup"},
	{"tin.extract_pair_ms_per_op", "ms/op", "lower", "primary_p50_ms on pair_heavy; flat on point_lookup"},
	{"tin.subgraph_interactions_p50", "count", "lower", "explains core and teg time; repeats exactly per seed"},
	{"tin.subgraph_interactions_p99", "count", "lower", "explains core and teg time; repeats exactly per seed"},
	{"tin.append32_ms", "ms", "lower", "secondary_p50_ms and client.primary_tail_ms on ingest_mix; flat on read-only workloads"},
	{"tin.load_text_s", "s", "lower", "setup_s"},
	{"tin.load_binary_s", "s", "lower", "setup_s after a restart"},
	{"tin.load_mmap_ms", "ms", "lower", "setup_s under -mmap"},
	{"tin.bytes_per_interaction", "bytes", "lower", "peak_rss_mb"},
	{"core.class_share.A", "ratio", "higher", "explains tails; repeats exactly per seed"},
	{"core.class_share.B", "ratio", "higher", "explains tails; repeats exactly per seed"},
	{"core.class_share.C", "ratio", "lower", "explains tails; repeats exactly per seed"},
	{"core.engine_used_share", "ratio", "lower", "explains tails; repeats exactly per seed"},
	{"core.presim_us_per_subgraph", "us/op", "lower", "ops_per_s on paper_eval, client.primary_tail_ms on point_lookup"},
	{"core.pre_us_per_subgraph", "us/op", "lower", "none served (the paper's Pre baseline)"},
	{"core.greedy_us_per_subgraph", "us/op", "lower", "none served (the paper's Greedy baseline)"},
	{"lp.raw_ms_per_subgraph", "ms/op", "lower", "client.primary_tail_ms on point_lookup, through class C"},
	{"teg.maxflow_ms_per_op", "ms/op", "lower", "primary_p50_ms and client.primary_tail_ms on pair_heavy; flat on point_lookup"},
	{"pattern.precompute_s", "s", "lower", "setup_s on paper_eval"},
	{"pattern.gb_ms", "ms", "lower", "secondary_p50_ms on paper_eval"},
	{"pattern.pb_ms", "ms", "lower", "secondary_p50_ms on paper_eval"},
	{"pattern.table_updates", "count", "higher", "ops_per_s on ingest_mix"},
	{"pattern.table_rebuilds", "count", "lower", "ops_per_s on ingest_mix"},
	{"par.speedup_batch", "ratio", "higher", "primary_p50_ms on paper_eval"},
	{"stream.append32_ms", "ms", "lower", "secondary_p50_ms on ingest_mix"},
	{"store.append32_ms", "ms", "lower", "secondary_p50_ms on ingest_mix"},
	{"store.wal_bytes_per_interaction", "bytes", "lower", "secondary_p50_ms on ingest_mix"},
	{"store.wal_appends", "count", "lower", "repeats exactly: the batches acknowledged"},
	{"store.snapshots", "count", "lower", "client.primary_tail_ms on ingest_mix"},
	{"store.recovery_s", "s", "lower", "setup_s after a crash"},
	{"datagen.generate_s", "s", "lower", "none (the benchmark's own cost)"},
	{"trace.overhead_pct", "%", "lower", "validity of the per-layer numbers"},
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the printed table.
type row struct {
	Name, Unit string
	Value      float64
	N          int // sample count behind the value; 0 = a single measurement
}

// metrics collects one run: the declared metrics, extra table-only rows
// (numbers that exist on this workload only), and correctness violations.
type metrics struct {
	Workload          string
	Attempted, Failed int
	E2E, Layer        map[string]metricValue
	Rows              []row
	Violations        []string
}

func newMetrics(workload string) *metrics {
	return &metrics{Workload: workload, E2E: map[string]metricValue{}, Layer: map[string]metricValue{}}
}

func (m *metrics) e2e(name string, v float64, unit string, n int) {
	m.E2E[name] = metricValue{v, unit}
	m.Rows = append(m.Rows, row{name, unit, v, n})
}

func (m *metrics) layer(name string, v float64, unit string) {
	m.Layer[name] = metricValue{v, unit}
	m.Rows = append(m.Rows, row{name, unit, v, 0})
}

// extra adds a row that is printed but is not part of the declared set.
func (m *metrics) extra(name string, v float64, unit string, n int) {
	m.Rows = append(m.Rows, row{name, unit, v, n})
}

// violate records a wrong answer or a broken invariant; any violation
// makes the run incorrect.
func (m *metrics) violate(format string, args ...any) {
	m.Violations = append(m.Violations, fmt.Sprintf(format, args...))
}

// complete checks that the run produced exactly the declared metrics, with
// the declared units, and no value a reader could not use.
func (m *metrics) complete(specs []metricSpec, got map[string]metricValue) error {
	for _, s := range specs {
		v, ok := got[s.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", s.Name)
		case v.Unit != s.Unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", s.Name, v.Value)
		}
	}
	if len(got) != len(specs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(got), len(specs))
	}
	return nil
}

// print writes the run as a table: every metric by name, with its unit,
// which way is better, and the sample count behind it.
func (m *metrics) print(w io.Writer) {
	better := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		better[s.Name] = s.Better
	}
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", m.Workload, m.Attempted, m.Failed)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tbetter\tsamples")
	for _, r := range m.Rows {
		n := ""
		if r.N > 0 {
			n = fmt.Sprint(r.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", r.Name, r.Value, r.Unit, better[r.Name], n)
	}
	tw.Flush()
	sort.Strings(m.Violations)
	for _, v := range m.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}
