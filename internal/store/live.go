package store

import (
	"fmt"
	"sort"

	"flownet/internal/tin"
)

// The live-network half of a Shard: what makes one finalized tin.Network
// updatable while queries keep running. The paper computes flow over a
// fixed network; a resident query service must also absorb interactions
// that arrive after load — payment streams, netflow exports. The contract:
//
//   - Readers call Acquire (or View) and see an immutable, canonical
//     network for as long as they hold the network read lock. The
//     generation they observe identifies exactly which version answered
//     their query, which is what makes (network, generation, query) a sound
//     cache key: a successful append bumps the generation, so every cached
//     answer from an older version becomes unreachable without touching
//     answers for other networks.
//   - Writers call Append with batches that are internally time-ordered
//     and start at or after the network's latest timestamp. Out-of-order
//     arrivals are detected per item and — under PolicyDefer — parked in a
//     pending buffer that an explicit Reindex merges with one full re-rank
//     (tin.MergeUnordered); under PolicyReject (the default) their batch
//     fails atomically.
//   - Every generation bump is announced to the store's SubscribeDelta
//     callbacks, under the network write lock, with a Delta saying exactly
//     what changed, so derived state — PB pattern tables, memoized query
//     answers — can be maintained incrementally instead of rebuilt.
//
// Mutations never make a half-applied state visible: validation happens
// before mutation, and the write lock is held for the whole step. The
// error texts keep their historical "stream:" prefix — it names the
// streaming-ingest step, and clients match on it.

// Item is one streamed interaction (an alias of tin.BatchItem): quantity
// Qty moved From -> To at time Time.
type Item = tin.BatchItem

// OutOfOrderPolicy selects what Append does with an interaction whose
// timestamp precedes the latest timestamp already in the network.
type OutOfOrderPolicy int

const (
	// PolicyReject fails the whole batch atomically (tin.ErrOutOfOrder).
	PolicyReject OutOfOrderPolicy = iota
	// PolicyDefer applies the in-order prefix of every item run and parks
	// out-of-order items in the pending buffer until Reindex merges them.
	PolicyDefer
)

// Options configure one Append call. The zero value rejects out-of-order
// items and requires every vertex id to be in range.
type Options struct {
	// OnOutOfOrder selects the out-of-order policy (default PolicyReject).
	OnOutOfOrder OutOfOrderPolicy
	// Grow extends the vertex space to fit out-of-range vertex ids instead
	// of rejecting them — streams routinely introduce new accounts/hosts.
	Grow bool
}

// Result reports what one mutation (Append, Reindex, Grow) did.
type Result struct {
	// Appended counts interactions applied to the live network: in order
	// by Append, merged from the pending buffer by Reindex.
	Appended int
	// Deferred counts out-of-order interactions parked in the pending
	// buffer (PolicyDefer only); they become visible after Reindex.
	Deferred int
	// Skipped counts self loops, which can never carry flow.
	Skipped int
	// Generation is the network generation after the mutation.
	Generation uint64
}

// Delta describes what one generation bump changed, precisely enough for
// derived state (pattern tables, memoized query answers) to be maintained
// incrementally instead of rebuilt. Exactly one of three shapes occurs:
//
//   - An append: Edges lists the distinct ids of edges that are new or
//     received new interactions, Vertices their distinct endpoints, both
//     ascending. Existing edge ids and the relative canonical order of
//     existing interactions are preserved, which is the precondition of
//     pattern.Tables.Update.
//   - A reindex: Full is true and Edges/Vertices are nil. The canonical
//     order was re-ranked wholesale, so per-edge deltas cannot describe the
//     change — consumers must rebuild.
//   - A vertex growth: Full is false and Edges/Vertices are empty. The new
//     vertices are isolated, so edge-derived state is unaffected, but the
//     vertex count itself is query-observable.
type Delta struct {
	Edges    []tin.EdgeID
	Vertices []tin.VertexID
	Full     bool
}

// Acquire read-locks the live network and returns it together with its
// generation and the release function. The returned network must only be
// read, and only until release is called.
func (sh *Shard) Acquire() (n *tin.Network, gen uint64, release func()) {
	sh.netMu.RLock()
	return sh.net, sh.gen.Load(), sh.netMu.RUnlock
}

// View runs fn with the live network read-locked. fn must only read.
func (sh *Shard) View(fn func(n *tin.Network, gen uint64)) {
	n, gen, release := sh.Acquire()
	defer release()
	fn(n, gen)
}

// Generation returns the current generation. It starts at 1 (or at the
// recovered value) and increases on every append, reindex or growth that
// changes what queries can observe. Like Pending and Durability it reads
// an atomic, never the network lock, so the control plane keeps answering
// while a writer queues behind a slow query.
func (sh *Shard) Generation() uint64 { return sh.gen.Load() }

// Pending returns the number of out-of-order interactions parked in the
// pending buffer, waiting for Reindex.
func (sh *Shard) Pending() int { return int(sh.numPending.Load()) }

// NetStats returns the live network's summary statistics.
func (sh *Shard) NetStats() tin.Stats {
	sh.netMu.RLock()
	defer sh.netMu.RUnlock()
	return sh.net.Stats()
}

// outcome is what one apply step did to the live network — returned to the
// durable path so it logs what happened instead of inferring it.
type outcome struct {
	Result
	// grew reports that the vertex space was extended, which bumped the
	// generation on its own and survives even if the rest of the step was
	// rejected; numV is the vertex count after the step.
	grew bool
	numV int
}

// changed reports whether the step left anything a WAL must reproduce.
func (o outcome) changed() bool { return o.grew || o.Appended > 0 || o.Deferred > 0 }

// apply performs one mutation — the three WAL ops are exactly the three
// things that can happen to a live network — under the network write lock,
// for the live path (mutate) and for recovery replay alike. On a validation
// error no interaction is applied or parked; only a growth (outcome.grew)
// can have happened.
func (sh *Shard) apply(m walRec) (out outcome, err error) {
	sh.netMu.Lock()
	defer sh.netMu.Unlock()
	switch m.op {
	case opAppend:
		out, err = sh.applyAppend(m.items, m.opts)
	case opReindex:
		out.Appended, err = sh.mergePending()
	case opGrow:
		if m.numV > tin.MaxVertices {
			err = fmt.Errorf("store: grow to %d vertices exceeds the %d-vertex limit", m.numV, tin.MaxVertices)
		} else {
			out.grew = sh.grow(m.numV)
		}
	default:
		err = fmt.Errorf("store: unknown WAL op %d", m.op)
	}
	out.Generation = sh.gen.Load()
	out.numV = sh.net.NumVertices()
	sh.numPending.Store(int64(len(sh.pending)))
	sh.mmapped.Store(sh.net.MmapBacked())
	return out, err
}

// bump increments the generation and announces the change. Callers hold the
// network write lock, so no change can be observed before its notification:
// a reader that observes generation g under the read lock is guaranteed the
// subscribers already ran for every bump up to and including g, which is
// what lets delta consumers keep an exact per-generation change log.
func (sh *Shard) bump(d Delta) {
	sh.store.notify(sh.name, sh.gen.Add(1), d)
}

// grow extends the vertex space to numV vertices, bumping the generation
// when it actually grows: the new vertices are isolated, so nothing
// edge-derived changes, but the vertex count is query-observable (batch
// "all", network listings).
func (sh *Shard) grow(numV int) bool {
	if numV <= sh.net.NumVertices() {
		return false
	}
	sh.net.GrowVertices(numV)
	sh.bump(Delta{})
	return true
}

// applyAppend extends the live network with a batch. Items must be
// internally time-ordered and start at or after the network's latest
// timestamp; out-of-order items are handled per opts.OnOutOfOrder. On any
// validation failure no interaction is applied or parked; the generation
// only moves if opts.Grow already extended the vertex space — even if the
// rest of the batch is then rejected, the grown space stays and cached
// answers for the old shape must die.
func (sh *Shard) applyAppend(items []Item, opts Options) (out outcome, err error) {
	if opts.Grow {
		maxID := -1
		for _, it := range items {
			maxID = max(maxID, int(it.From), int(it.To))
		}
		if maxID >= tin.MaxVertices {
			// Rejected before anything mutates: growth past the shared
			// ceiling would both demand an unbounded adjacency allocation
			// and produce snapshots the binary reader refuses to load.
			return out, fmt.Errorf("stream: grow to vertex %d exceeds the %d-vertex limit", maxID, tin.MaxVertices)
		}
		out.grew = sh.grow(maxID + 1)
	}

	var apply, parked []Item
	skipped := 0
	last := sh.net.MaxTime()
	for i, it := range items {
		if it.From == it.To {
			skipped++
			continue
		}
		if it.Time < last {
			if opts.OnOutOfOrder == PolicyReject {
				return out, fmt.Errorf("stream: batch item %d at time %v precedes latest time %v: %w",
					i, it.Time, last, tin.ErrOutOfOrder)
			}
			parked = append(parked, it)
			continue
		}
		last = it.Time
		apply = append(apply, it)
	}

	// Parked items get the same value validation as applied ones — before
	// anything mutates, so a batch is admitted or rejected as a whole, and
	// so the later Reindex merge cannot fail.
	for i, it := range parked {
		if cerr := sh.net.CheckItem(it); cerr != nil {
			return out, fmt.Errorf("stream: deferred item %d: %w", i, cerr)
		}
	}
	appended, changed, err := sh.net.AppendBatchDelta(apply)
	if err != nil {
		return out, err
	}
	sh.pending = append(sh.pending, parked...)
	out.Appended, out.Deferred, out.Skipped = appended, len(parked), skipped
	if appended > 0 {
		sh.bump(Delta{Edges: changed, Vertices: sh.endpointsOf(changed)})
	}
	return out, nil
}

// endpointsOf flattens the changed edges' endpoints into a distinct,
// ascending vertex list — the touched-vertex side of an append Delta.
func (sh *Shard) endpointsOf(edges []tin.EdgeID) []tin.VertexID {
	if len(edges) == 0 {
		return nil
	}
	set := make(map[tin.VertexID]struct{}, 2*len(edges))
	for _, e := range edges {
		ed := sh.net.Edge(e)
		set[ed.From] = struct{}{}
		set[ed.To] = struct{}{}
	}
	verts := make([]tin.VertexID, 0, len(set))
	for v := range set {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(a, b int) bool { return verts[a] < verts[b] })
	return verts
}

// mergePending merges the pending out-of-order interactions into the live
// network with one full canonical re-rank, bumping the generation. It is a
// no-op (and does not bump) when nothing is pending.
func (sh *Shard) mergePending() (int, error) {
	if len(sh.pending) == 0 {
		return 0, nil
	}
	merged, err := sh.net.MergeUnordered(sh.pending)
	if err != nil {
		// Pending items were validated on admission, and the vertex space
		// only grows: this cannot fail.
		return 0, err
	}
	sh.pending = nil
	if merged > 0 {
		// A re-rank of the whole canonical order cannot be described by a
		// per-edge delta: consumers must treat every derived answer as
		// stale.
		sh.bump(Delta{Full: true})
	}
	return merged, nil
}
