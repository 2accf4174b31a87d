package server

import "flownet/internal/cache"

// This file defines the JSON wire types of the flownetd HTTP API. The root
// flownet package re-exports them so that client code can use the same
// structs the server marshals.

// FlowResult is the response of GET /flow: one flow computation, either
// between an explicit source/sink pair or around a seed vertex (the §6.2
// returning-path extraction with the seed split into source and sink).
type FlowResult struct {
	Network string `json:"network"`
	// Query is "pair" or "seed".
	Query  string `json:"query"`
	Source int    `json:"source,omitempty"`
	Sink   int    `json:"sink,omitempty"`
	Seed   int    `json:"seed,omitempty"`
	// Ok is false when no flow subgraph exists (the sink is unreachable
	// from the source, or the seed has no returning path / exceeds the
	// extraction cap). All remaining fields are zero then.
	Ok   bool    `json:"ok"`
	Flow float64 `json:"flow"`
	// Class is the pipeline difficulty class ("A", "B", "C"), empty when
	// the time-expanded fallback ran instead of the PreSim pipeline.
	Class string `json:"class,omitempty"`
	// Method is "presim", or "teg" for cyclic pair subgraphs (the PreSim
	// pipeline requires DAGs; the time-expanded engine does not).
	Method     string `json:"method,omitempty"`
	UsedEngine bool   `json:"used_engine,omitempty"`
	// Subgraph size actually solved (after any window restriction).
	Vertices     int `json:"vertices,omitempty"`
	Edges        int `json:"edges,omitempty"`
	Interactions int `json:"interactions,omitempty"`
}

// BatchRequest is the POST /flow/batch body: the §6.2 per-seed experiment
// over many seeds at once, backed by flownet.BatchFlowSeeds.
type BatchRequest struct {
	// Network may be empty when exactly one network is loaded.
	Network string `json:"network,omitempty"`
	// Seeds lists the seed vertices; All runs every vertex instead.
	Seeds []int `json:"seeds,omitempty"`
	All   bool  `json:"all,omitempty"`
	// Hops is the extraction bound (0 = default 3).
	Hops int `json:"hops,omitempty"`
	// MaxInteractions caps extracted subgraphs (0 = default 10000,
	// negative = no cap).
	MaxInteractions int `json:"max_interactions,omitempty"`
	// Workers bounds the worker pool for this request; the server clamps
	// it to its own -workers setting. 0 selects the server default.
	Workers int `json:"workers,omitempty"`
}

// SeedFlowResult is one per-seed outcome inside a BatchResult.
type SeedFlowResult struct {
	Seed int  `json:"seed"`
	Ok   bool `json:"ok"`
	// Flow and Class are zero / empty when Ok is false.
	Flow  float64 `json:"flow,omitempty"`
	Class string  `json:"class,omitempty"`
}

// BatchResult is the response of POST /flow/batch.
type BatchResult struct {
	Network   string           `json:"network"`
	Solved    int              `json:"solved"`
	TotalFlow float64          `json:"total_flow"`
	Results   []SeedFlowResult `json:"results"`
}

// PatternResult is the response of GET /patterns: one pattern-search
// summary in the shape of the paper's Tables 9–11.
type PatternResult struct {
	Network   string  `json:"network"`
	Pattern   string  `json:"pattern"`
	Mode      string  `json:"mode"` // "pb" or "gb"
	Instances int64   `json:"instances"`
	TotalFlow float64 `json:"total_flow"`
	AvgFlow   float64 `json:"avg_flow"`
	Truncated bool    `json:"truncated,omitempty"`
}

// IngestInteraction is one streamed interaction in a POST /ingest body:
// quantity Qty moved From -> To at time Time.
type IngestInteraction struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Time float64 `json:"time"`
	Qty  float64 `json:"qty"`
}

// IngestRequest is the POST /ingest body: a time-ordered interaction batch
// appended to a loaded network. The endpoint exists only when the server
// allows ingestion (flownetd -allow-ingest).
type IngestRequest struct {
	// Network may be empty when exactly one network is loaded.
	Network string `json:"network,omitempty"`
	// Interactions must be in time order unless AllowOutOfOrder is set.
	Interactions []IngestInteraction `json:"interactions"`
	// AllowOutOfOrder parks interactions older than the network's latest
	// timestamp in a pending buffer (merged by Reindex) instead of
	// rejecting the batch.
	AllowOutOfOrder bool `json:"allow_out_of_order,omitempty"`
	// Reindex merges the pending buffer into the network after the append
	// (one full canonical re-rank). Legal with an empty Interactions list.
	Reindex bool `json:"reindex,omitempty"`
	// Grow extends the network's vertex space to fit out-of-range ids.
	Grow bool `json:"grow,omitempty"`
}

// IngestResult is the response of POST /ingest.
type IngestResult struct {
	Network string `json:"network"`
	// Appended counts interactions applied in order; Deferred counts
	// out-of-order interactions parked for a later reindex; Skipped counts
	// self loops. Pending is the total parked backlog after this request.
	Appended int `json:"appended"`
	Deferred int `json:"deferred,omitempty"`
	Skipped  int `json:"skipped,omitempty"`
	Pending  int `json:"pending,omitempty"`
	// Reindexed reports that a reindex merged the pending buffer.
	Reindexed bool `json:"reindexed,omitempty"`
	// Generation is the network generation after the request; it changes
	// exactly when query results may change.
	Generation uint64 `json:"generation"`
}

// CreateNetworkRequest is the POST /networks body: register a new, empty,
// ingest-ready network. Requires -allow-ingest.
type CreateNetworkRequest struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
}

// CreateNetworkResult is the response of POST /networks.
type CreateNetworkResult struct {
	Name       string `json:"name"`
	Vertices   int    `json:"vertices"`
	Generation uint64 `json:"generation"`
}

// NetworkInfo describes one loaded network (GET /networks, GET /stats).
type NetworkInfo struct {
	Vertices     int     `json:"vertices"`
	Edges        int     `json:"edges"`
	Interactions int     `json:"interactions"`
	AvgQty       float64 `json:"avg_qty"`
	// MaxTime is the latest interaction timestamp (0 when the network is
	// empty). Ingest clients — cmd/flowload's writers among them — start
	// their timestamps here to append in order without a probe write.
	MaxTime float64 `json:"max_time,omitempty"`
	// TablesReady reports whether the PB path tables are current for the
	// network's current generation. They are built on the first
	// /patterns?mode=pb query; after an ingest, the next one patches them
	// forward over the vertices the ingest touched (rebuilds them after a
	// reindex), and until then they are not ready.
	TablesReady bool `json:"tables_ready"`
	// Generation is the network's current generation (starts at 1, bumped
	// by every ingest that changes query results).
	Generation uint64 `json:"generation"`
	// PendingInteractions counts out-of-order arrivals parked until the
	// next reindex.
	PendingInteractions int `json:"pending_interactions,omitempty"`
}

// EndpointStats are the per-endpoint counters of GET /stats.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	// Errors counts responses with status >= 400 — except shed 503s, which
	// are deliberate load-shedding, not failures: they appear in Shed (and
	// in Requests) only, so an error-rate alert never pages on the server
	// protecting itself.
	Errors    uint64 `json:"errors"`
	CacheHits uint64 `json:"cache_hits"`
	// Shed counts requests rejected by admission control (503 + Retry-After
	// when more than -max-inflight queries were already executing).
	Shed uint64 `json:"shed,omitempty"`
	// AvgLatencyMs is the mean wall-clock handler latency in milliseconds
	// (LatencySumNs over Requests; under concurrent traffic it may lag a
	// hair low, never high — see endpointMetrics.snapshot).
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	// P50/P95/P99LatencyMs are estimated from the fixed-bucket latency
	// histogram (internal/hist.DefaultBounds — the same buckets /metrics
	// exposes as flownet_request_latency_seconds, so a dashboard quantile
	// and this figure agree).
	P50LatencyMs float64 `json:"p50_latency_ms"`
	P95LatencyMs float64 `json:"p95_latency_ms"`
	P99LatencyMs float64 `json:"p99_latency_ms"`
	// LatencySumNs is the exact accumulated handler wall-clock time in
	// nanoseconds and LatencyCount the number of observations — the raw
	// counters behind the Prometheus _sum/_count pair, exported undigested
	// so the two surfaces can be cross-checked exactly.
	LatencySumNs int64  `json:"latency_sum_ns"`
	LatencyCount uint64 `json:"latency_count"`
}

// StoreStats are the store-wide durability counters of GET /stats.
type StoreStats struct {
	// Durable reports whether the server runs on a durable store
	// (flownetd -data-dir).
	Durable bool `json:"durable"`
	// WALAppends / WALFsyncs count write-ahead-log records written and
	// fsync calls issued since startup.
	WALAppends uint64 `json:"wal_appends"`
	WALFsyncs  uint64 `json:"wal_fsyncs"`
	// Snapshots counts checkpoints taken; Recoveries counts networks
	// restored from the data directory at startup.
	Snapshots  uint64 `json:"snapshots"`
	Recoveries uint64 `json:"recoveries"`
}

// DerivedStats counts how the server maintained its derived state across
// ingests: whether stale PB path tables were patched forward over the
// vertices stamped since they were built (table_updates) or built from
// scratch — the first build, the first after a reindex, and one for a
// reader pinned below the cached tables (table_rebuilds) — and how many
// lookups served a cached response computed at an earlier generation,
// proved fresh by its footprint (cache_retained), versus found one and
// refused it as stale (cache_purged). Both move on the lookup, not on the
// ingest.
type DerivedStats struct {
	TableUpdates  uint64 `json:"table_updates"`
	TableRebuilds uint64 `json:"table_rebuilds"`
	CacheRetained uint64 `json:"cache_retained"`
	CachePurged   uint64 `json:"cache_purged"`
}

// StatsResult is the response of GET /stats.
type StatsResult struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Networks      map[string]NetworkInfo   `json:"networks"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Cache         cache.Stats              `json:"cache"`
	Store         StoreStats               `json:"store"`
	Derived       DerivedStats             `json:"derived"`
	// Panics counts handler panics converted to 500s by the recovery
	// middleware since startup. Any non-zero value deserves a look at the
	// server log, which carries the stacks.
	Panics uint64 `json:"panics,omitempty"`
}

// DurabilityInfo is one network's durability state in GET /healthz.
type DurabilityInfo struct {
	// Status is "ok", or "degraded" when the network is serving reads but
	// cannot currently make writes durable (poisoned WAL awaiting repair,
	// or a failing background checkpoint). Reasons lists why.
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
	// Durable reports whether the network has a write-ahead log at all.
	Durable bool `json:"durable"`
	// WALRecordsPending / WALBytesPending measure the current WAL — the
	// replay work a crash right now would cost (the checkpoint lag).
	WALRecordsPending int   `json:"wal_records_pending"`
	WALBytesPending   int64 `json:"wal_bytes_pending"`
	// BaseGeneration is the generation of the snapshot (or empty base)
	// the current WAL builds on.
	BaseGeneration uint64 `json:"base_generation,omitempty"`
	// LastSnapshotUnixMs is the time of the newest snapshot in Unix
	// milliseconds, 0 when the network has never been checkpointed.
	LastSnapshotUnixMs int64 `json:"last_snapshot_unix_ms,omitempty"`
	// CheckpointError surfaces a failing background checkpoint.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// WALError surfaces a WAL write failure that made the network
	// read-only (a successful snapshot repairs it).
	WALError string `json:"wal_error,omitempty"`
	// Mmap reports whether the network's base is currently served
	// zero-copy from an mmap'd snapshot (it flips to false once ingest has
	// folded the network onto the heap — the next checkpoint, at the
	// latest).
	Mmap bool `json:"mmap"`
}

// HealthzResult is the response of GET /healthz.
type HealthzResult struct {
	// Ok is liveness: the process is up and answering. It stays true while
	// networks degrade — reads keep serving — so orchestrators must not
	// restart a merely degraded instance (the repair runs in-process).
	Ok bool `json:"ok"`
	// Status is "ok", or "degraded" when at least one network is degraded;
	// the per-network entries carry the reasons.
	Status string `json:"status"`
	// Networks maps each network to its durability state.
	Networks map[string]DurabilityInfo `json:"networks,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
