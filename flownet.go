// Package flownet computes flow in temporal interaction networks. It is a
// Go implementation of Kosyfaki, Mamoulis, Pitoura and Tsaparas, "Flow
// Computation in Temporal Interaction Networks" (ICDE 2021).
//
// A temporal interaction network is a directed graph whose edges carry
// timestamped transfers (t, q) — money, packets, messages — and the central
// question is how much quantity can move from a source vertex to a sink
// vertex when every vertex buffers what it receives and can only forward
// quantity that arrived earlier.
//
// # Flow computation
//
// Build a flow instance with NewGraph (or extract one from a Network) and
// solve it:
//
//	g := flownet.NewGraph(4, 0, 3)
//	e := g.AddEdge(0, 1)
//	g.AddInteraction(e, 1.0, 5.0) // at time 1, 5 units move 0 -> 1
//	...
//	g.Finalize()
//	greedy := flownet.Greedy(g)        // single-scan greedy flow (Def. 5)
//	max := flownet.MaxFlow(g)          // maximum flow (PreSim pipeline)
//
// Greedy is linear in the interaction count but only a lower bound in
// general; it is exact when GreedySoluble reports true (Lemma 2). MaxFlow
// runs the paper's complete PreSim pipeline: a solubility test, the
// Algorithm 1 preprocessing, the Algorithm 2 chain simplification, and —
// only if still necessary — an exact solver: the time-expanded reduction
// of Akrida et al. solved with Dinic's algorithm, which also answers the
// cyclic instances FlowSubgraphBetween can return. The LP of the paper's
// Section 4.2.1 is the reproduction baseline (MaxFlowLP, and Pre/PreSim
// with EngineLP, which require DAGs as the paper does); MaxFlow, the batch
// API and the service never run it.
//
// # Pattern search
//
// Whole networks are represented by Network, read with LoadNetwork or
// built with the NetworkBuilder that NewNetwork returns:
//
//	b := flownet.NewNetwork(4)
//	b.AddInteraction(0, 1, 1.0, 5.0) // at time 1, 5 units move 0 -> 1
//	...
//	n := b.Finalize()
//
// The instances of small DAG patterns (cyclic transactions, laundering
// "flowers", relaxed multi-path patterns) and their flows are enumerated
// with SearchGB (graph browsing) or, after Precompute, the much faster
// SearchPB.
//
// # Concurrency
//
// The search and pipeline entry points never mutate their inputs, so they
// are safe to call concurrently on the same network or graph. Two knobs
// exploit this: PatternOptions.Workers fans the per-instance flow
// computations of SearchGB/SearchPB out to a bounded worker pool (results
// are aggregated in enumeration order, so any worker count produces a
// Summary identical to the sequential search), and BatchFlowSeeds answers
// many independent seeds concurrently.
//
// # Serving
//
// cmd/flownetd turns the library into a resident query service: networks
// are loaded once and flow, batch and pattern queries are answered over
// HTTP/JSON, with repeated queries memoized in a bounded LRU and replayed
// byte-identically. With -allow-ingest the service also accepts live
// traffic: time-ordered interaction batches are appended to resident
// networks (POST /ingest, backed by Shard.Append, which derives the next
// version with Network.WithBatch), each append bumps the network's
// generation, and cached answers record theirs so stale ones are never
// replayed. Client (NewClient) is the matching Go client; the wire types (FlowResult, BatchRequest,
// IngestRequest, PatternResult, StatsResult, ...) are shared with the
// server. See the README's Serving and Streaming ingestion sections for
// curl walkthroughs.
//
// # Durability
//
// Store (OpenStore) is the durable network catalog behind flownetd
// -data-dir: it owns a set of live networks as Shards, records every
// accepted mutation to a per-network write-ahead log before acknowledging
// it, checkpoints networks into binary snapshots, and recovers the exact
// acknowledged state — contents, pending buffer and generation — from the
// data directory after a crash. Library users get the same guarantees
// without the HTTP layer:
//
//	st, _ := flownet.OpenStore(flownet.StoreConfig{Dir: "data"})
//	defer st.Close()
//	sh, _ := st.Create("payments", 4)
//	sh.Append([]flownet.StreamItem{{From: 0, To: 1, Time: 1, Qty: 50}},
//	    flownet.StreamOptions{})
//
// An empty Dir yields a purely in-memory catalog with the same API.
//
// # Reproduction
//
// cmd/repro regenerates every table and figure of the paper's evaluation on
// synthetic datasets shaped after the originals; DESIGN.md documents the
// architecture and the deliberate deviations, EXPERIMENTS.md what each
// experiment reproduces and how to read it.
package flownet

import (
	"context"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// Core data types (see package tin for full documentation).
type (
	// Network is a whole temporal interaction network.
	Network = tin.Network
	// NetworkBuilder collects the interactions of a Network under
	// construction; its Finalize returns the Network.
	NetworkBuilder = tin.Builder
	// Graph is a flow-computation instance with designated source and sink.
	Graph = tin.Graph
	// Interaction is a timestamped transfer (t, q).
	Interaction = tin.Interaction
	// Edge is a directed edge with its interaction sequence.
	Edge = tin.Edge
	// VertexID identifies a vertex.
	VertexID = tin.VertexID
	// EdgeID identifies an edge.
	EdgeID = tin.EdgeID
	// ExtractOptions controls seed-based subgraph extraction (Section 6.2).
	ExtractOptions = tin.ExtractOptions
	// BatchItem is one streamed interaction for Network.AppendBatch.
	BatchItem = tin.BatchItem
)

// Streaming types (see internal/store): a live network, a Shard, publishes
// versions of a Network — immutable values, each with its generation — so
// that time-ordered interaction batches can extend it while queries keep
// running on the version they pinned, neither waiting for the other.
// NewLiveNetwork returns the shard of a private in-memory store, so
// everything said about Shard (Append, Reindex, Grow, View/Acquire,
// Generation, Pending) holds for it.
// Network itself also exposes the derivations a shard runs — WithBatch,
// WithMerged, WithVertices, each returning the next version — and
// AppendBatch, WithBatch assigned over a single owner's receiver, for
// callers that manage their own synchronization.
type (
	// StreamOptions configure one Shard Append call.
	StreamOptions = store.Options
	// StreamResult reports what one Shard mutation did.
	StreamResult = store.Result
)

// Out-of-order policies for Shard Append.
const (
	// StreamPolicyReject fails a batch with out-of-order items atomically.
	StreamPolicyReject = store.PolicyReject
	// StreamPolicyDefer parks out-of-order items until Reindex merges them.
	StreamPolicyDefer = store.PolicyDefer
)

// ErrOutOfOrder reports an appended interaction whose timestamp precedes
// the network's latest timestamp (see Network.AppendBatch).
var ErrOutOfOrder = tin.ErrOutOfOrder

// Durable network store (see internal/store): the catalog behind flownetd
// -data-dir, usable directly by library code that wants crash-safe live
// networks without the HTTP layer.
type (
	// Store is a concurrency-safe catalog of live networks with an opt-in
	// durability layer (per-network write-ahead logs plus binary
	// snapshots). Create one with OpenStore.
	Store = store.Store
	// StoreConfig configures OpenStore: the data directory (empty =
	// in-memory only), the WAL fsync policy and the snapshot cadence.
	StoreConfig = store.Config
	// Shard is one live network owned by a Store: the query surface plus
	// the durable mutation path (Append, Reindex, Snapshot).
	Shard = store.Shard
	// ShardDurability describes one shard's durability state: WAL records
	// and bytes pending since the last checkpoint, and when that was.
	ShardDurability = store.Durability
	// StoreCounters are the store-wide durability counters (WAL appends,
	// fsyncs, snapshots, recoveries).
	StoreCounters = store.Stats
	// StreamItem is one streamed interaction for Shard.Append.
	StreamItem = store.Item
)

// Store error classes, for errors.Is on Shard/Store mutation errors.
var (
	// ErrStoreDuplicate reports a Create/Add under an already-registered
	// network name.
	ErrStoreDuplicate = store.ErrDuplicate
	// ErrStoreDurability wraps WAL failures on the write path: the batch
	// was applied in memory but could not be made durable, so the caller
	// must not treat it as acknowledged.
	ErrStoreDurability = store.ErrDurability
)

// OpenStore creates a network store. With cfg.Dir set it recovers every
// network found there (newest snapshot plus WAL replay) before returning;
// with an empty Dir it is a purely in-memory catalog and cannot fail.
// Close the store to fsync and release its write-ahead logs.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// SaveNetworkBinary writes a network to the named file in the length-
// prefixed binary snapshot codec — the format the store's checkpoints use,
// measurably faster to load than the text format. LoadNetwork reads both
// (the format is sniffed), so binary files are drop-in replacements.
func SaveNetworkBinary(path string, n *Network) error { return tin.SaveNetworkBinary(path, n) }

// NewLiveNetwork makes a network live-updatable — as the sole shard of a
// private in-memory store; the caller must not use n directly afterwards.
func NewLiveNetwork(n *Network) (*Shard, error) {
	return privateStore().Add(liveNetworkName, n)
}

// NewEmptyLiveNetwork creates a live network with numV vertices and no
// interactions, to be populated entirely by appends. It panics when numV
// is negative or exceeds the store's vertex ceiling (1<<24).
func NewEmptyLiveNetwork(numV int) *Shard {
	sh, err := privateStore().Create(liveNetworkName, numV)
	if err != nil {
		panic(err)
	}
	return sh
}

// liveNetworkName is the name a standalone live network is registered under
// in its private store (and reports from Name).
const liveNetworkName = "live"

func privateStore() *Store {
	st, _ := store.Open(store.Config{}) // memory-only Open cannot fail
	return st
}

// Flow computation types (see internal/core).
type (
	// Engine selects the exact max-flow solver (EngineLP or EngineTEG).
	Engine = core.Engine
	// Class is the difficulty class a pipeline assigned (A, B or C).
	Class = core.Class
	// Result is a pipeline outcome: flow, class, and reduction statistics.
	Result = core.Result
	// PreprocessStats reports what Algorithm 1 removed.
	PreprocessStats = core.PreprocessStats
	// SimplifyStats reports what Algorithm 2 reduced.
	SimplifyStats = core.SimplifyStats
)

// Engine and class constants.
const (
	EngineLP  = core.EngineLP
	EngineTEG = core.EngineTEG
	ClassA    = core.ClassA
	ClassB    = core.ClassB
	ClassC    = core.ClassC
)

// Pattern search types (see internal/pattern).
type (
	// Pattern is a network pattern (rigid DAG or relaxed multi-path).
	Pattern = pattern.Pattern
	// Instance is one match of a rigid pattern.
	Instance = pattern.Instance
	// PatternOptions controls a pattern search.
	PatternOptions = pattern.Options
	// PatternSummary aggregates a pattern search.
	PatternSummary = pattern.Summary
	// Tables bundles precomputed path tables for SearchPB.
	Tables = pattern.Tables
	// PathTable is one precomputed path table (2-/3-hop cycles or chains).
	PathTable = pattern.Table
	// PathRow is one precomputed path with its flow and arrival sequence.
	PathRow = pattern.Row
)

// The pattern catalogue of the paper's Figure 12.
var (
	P1  = pattern.P1
	P2  = pattern.P2
	P3  = pattern.P3
	P4  = pattern.P4
	P5  = pattern.P5
	P6  = pattern.P6
	RP1 = pattern.RP1
	RP2 = pattern.RP2
	RP3 = pattern.RP3
	// PatternCatalogue lists all of the above.
	PatternCatalogue = pattern.Catalogue
)

// Pattern kinds (rigid vs the relaxed multi-path kinds of Section 5.3).
const (
	KindRigid          = pattern.KindRigid
	KindRelaxedChains  = pattern.KindRelaxedChains
	KindRelaxed2Cycles = pattern.KindRelaxed2Cycles
	KindRelaxed3Cycles = pattern.KindRelaxed3Cycles
)

// PatternCatalogueByName returns the catalogue pattern with the given name
// ("P1" … "P6", "RP1" … "RP3"), or nil.
func PatternCatalogueByName(name string) *Pattern { return pattern.ByName(name) }

// NewGraph creates an empty flow instance with numV vertices and the given
// source and sink.
func NewGraph(numV int, source, sink VertexID) *Graph { return tin.NewGraph(numV, source, sink) }

// NewNetwork returns the builder of an interaction network with numV
// vertices; its Finalize returns the Network. It panics when numV is
// negative or exceeds the vertex ceiling (1<<24).
func NewNetwork(numV int) *NetworkBuilder { return tin.NewBuilder(numV) }

// LoadNetwork reads a network from an interaction file — text or binary
// (the format is sniffed), optionally gzip-compressed under a .gz name.
func LoadNetwork(path string) (*Network, error) { return tin.LoadNetwork(path) }

// LoadNetworkMmap is LoadNetwork with a zero-copy fast path: an
// uncompressed FNTB v2 snapshot is mapped read-only into memory and served
// in place instead of being decoded. Any other input — text, gzip, or a
// platform without mmap — falls back to a regular load. The mapped
// interaction arena is advised MADV_RANDOM, so cold footprint-bound queries
// on networks larger than RAM fault in only the pages they touch. Appends
// leave the mapping in place (what they add lives on the heap beside it);
// it is released when an AppendBatch folds the network onto the heap, or
// by Network.Unmap.
func LoadNetworkMmap(path string) (*Network, error) { return tin.OpenNetworkMmap(path) }

// SaveNetwork writes a network to a text (optionally .gz) interaction file.
func SaveNetwork(path string, n *Network) error { return tin.SaveNetwork(path, n) }

// DefaultExtractOptions mirror the paper's subgraph extraction setup.
func DefaultExtractOptions() ExtractOptions { return tin.DefaultExtractOptions() }

// Greedy computes the greedy flow of g (Definition 5): a single scan over
// the interactions in time order. Linear in the interaction count.
func Greedy(g *Graph) float64 { return core.Greedy(g) }

// GreedySoluble reports whether the greedy algorithm is guaranteed to
// compute the maximum flow of g (Lemma 2: every non-terminal vertex has
// exactly one outgoing edge).
func GreedySoluble(g *Graph) bool { return core.GreedySoluble(g) }

// MaxFlow computes the temporal maximum flow of g the way the service
// does (core.Solve): the paper's complete PreSim pipeline (solubility test,
// preprocessing, simplification) with the time-expanded reduction as its
// exact engine, or that reduction alone when g is cyclic. Unlike the LP,
// neither can fail.
func MaxFlow(g *Graph) float64 { return core.Solve(g).Flow }

// MaxFlowLP computes the maximum flow by solving the LP formulation
// directly — the paper's baseline, quadratic in the interaction count, and
// the independent oracle the tests hold MaxFlow to. Its simplex compares
// with an absolute 1e-9, so it is an oracle for quantities of about 1e-6
// and up; it is percent-level off around 1e-9 and answers 0 below that.
func MaxFlowLP(g *Graph) (float64, error) { return core.MaxFlowLP(g) }

// MaxFlowTEG computes the maximum flow via the time-expanded static
// reduction (Akrida et al.) alone, with none of the pipeline's reductions:
// the residual network laid out as flat arrays, one node per block of a
// vertex's arrivals-then-departures, and solved with Dinic's algorithm. It
// takes cyclic graphs.
func MaxFlowTEG(g *Graph) float64 { return teg.MaxFlow(g) }

// Pre runs the paper's Pre pipeline: solubility test, preprocessing,
// re-test, then the exact engine only if needed. g is not modified.
func Pre(g *Graph, engine Engine) (Result, error) { return core.Pre(g, engine) }

// PreSim runs the complete pipeline (Pre plus chain simplification).
// g is not modified.
func PreSim(g *Graph, engine Engine) (Result, error) { return core.PreSim(g, engine) }

// BatchOptions configure BatchFlowSeeds.
type BatchOptions struct {
	// Workers bounds the worker pool: 0 selects GOMAXPROCS, 1 (or any
	// negative value) runs sequentially.
	Workers int
}

// SeedFlow is one BatchFlowSeeds outcome (see core.SeedResult).
type SeedFlow = core.SeedResult

// BatchFlowSeeds runs the paper's Section 6.2 per-seed experiment
// concurrently: for every seed it extracts the returning-path flow
// subgraph around the seed (Figure 10) and solves it as MaxFlow would.
// Seeds without a subgraph (no returning path, or above the extraction
// size cap) are reported with Ok == false. Results are in seed order,
// identical to a sequential loop; the error is always nil.
func BatchFlowSeeds(n *Network, seeds []VertexID, extract ExtractOptions, opts BatchOptions) ([]SeedFlow, error) {
	return core.BatchSeedsContext(context.TODO(), n, seeds, extract, opts.Workers)
}

// Preprocess applies Algorithm 1 (interaction/edge/vertex elimination) to g
// in place, preserving its maximum flow. The graph must be a DAG.
func Preprocess(g *Graph) (PreprocessStats, error) { return core.Preprocess(g) }

// Simplify applies Algorithm 2 (source-chain reduction) to g in place,
// preserving its maximum flow.
func Simplify(g *Graph) SimplifyStats { return core.Simplify(g) }

// Precompute builds the path tables (L2, L3 and optionally C2) that
// SearchPB joins; the tables depend only on the network and are reusable
// across patterns.
func Precompute(n *Network, withChains bool) Tables { return pattern.Precompute(n, withChains) }

// SearchGB enumerates a pattern's instances by graph browsing and computes
// each instance's maximum flow. No precomputed data required.
func SearchGB(n *Network, p *Pattern, opts PatternOptions) (PatternSummary, error) {
	return pattern.SearchGB(n, p, opts)
}

// SearchPB enumerates a pattern's instances using precomputed path tables,
// reusing stored path flows whenever the pattern decomposes into
// independent anchored paths.
func SearchPB(n *Network, t Tables, p *Pattern, opts PatternOptions) (PatternSummary, error) {
	return pattern.SearchPB(n, t, p, opts)
}

// EnumerateGB streams a rigid pattern's instances to fn; return false from
// fn to stop. The *Instance is reused between calls.
func EnumerateGB(n *Network, p *Pattern, fn func(*Instance) bool) error {
	return pattern.EnumerateGB(n, p, fn)
}

// InstanceFlow computes the maximum flow of one rigid pattern instance.
func InstanceFlow(n *Network, p *Pattern, inst *Instance, engine Engine) (float64, error) {
	return pattern.InstanceFlow(n, p, inst, engine)
}

// DatasetConfig parameterizes the synthetic dataset generators.
type DatasetConfig = datagen.Config

// GenerateBitcoin builds a synthetic network shaped after the paper's
// Bitcoin dataset (heavy-tailed degrees, long per-edge sequences).
func GenerateBitcoin(cfg DatasetConfig) *Network { return datagen.Bitcoin(cfg) }

// GenerateCTU13 builds a synthetic network shaped after the CTU-13 botnet
// traffic dataset (hub-and-spoke, short sequences).
func GenerateCTU13(cfg DatasetConfig) *Network { return datagen.CTU13(cfg) }

// GenerateProsper builds a synthetic network shaped after the Prosper
// loans dataset (dense, one interaction per edge).
func GenerateProsper(cfg DatasetConfig) *Network { return datagen.Prosper(cfg) }
