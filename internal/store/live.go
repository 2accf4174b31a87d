package store

import (
	"fmt"
	"slices"
	"sync/atomic"

	"flownet/internal/tin"
)

// The live-network half of a Shard: what makes one finalized tin.Network
// updatable while queries keep running. The paper computes flow over a
// fixed network; a resident query service must also absorb interactions
// that arrive after load — payment streams, netflow exports. The contract:
//
//   - The shard publishes versions: an immutable network, its generation
//     and the size of the pending buffer, behind one atomic pointer.
//     Readers call Acquire (or View), which loads the pointer and pins what
//     it found; they see that version, unchanged, for as long as they hold
//     the pin, and never wait for a writer — nor a writer for them. The
//     generation they observe identifies exactly which version answered
//     their query, which is what makes memoizing (network, query) answers
//     sound: an answer records the generation it was computed at, a
//     successful append bumps the generation, and the Deltas below say
//     which older answers the bump left true — without touching answers
//     for other networks.
//   - Writers call Append with batches that are internally time-ordered
//     and start at or after the network's latest timestamp. Out-of-order
//     arrivals are detected per item and — under PolicyDefer — parked in a
//     pending buffer that an explicit Reindex merges with one full re-rank
//     (tin.WithMerged); under PolicyReject (the default) their batch fails
//     atomically. A mutation derives the next version from the current one
//     (tin.WithBatch and friends: O(batch), the base image is shared) and
//     swaps the pointer.
//   - Every generation bump is announced to the store's SubscribeDelta
//     callbacks *before* its version is published, with a Delta saying
//     exactly what changed, so derived state — PB pattern tables, memoized
//     query answers — can be maintained incrementally instead of rebuilt,
//     and no reader ever holds a generation its subscribers have not heard
//     of.
//
// Mutations never make a half-applied state visible: validation happens
// before anything is derived, and a version is complete before the swap.
// The error texts keep their historical "stream:" prefix — it names the
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
//   - An append: Vertices lists, ascending, the distinct endpoints of the
//     edges that are new or received new interactions. Existing edge ids
//     and the relative canonical order of existing interactions are
//     preserved, which is the precondition of pattern.Tables.Update.
//   - A reindex: Full is true and Vertices is nil. The canonical order was
//     re-ranked wholesale, so touched vertices cannot describe the change —
//     consumers must rebuild.
//   - A vertex growth: Full is false and Vertices is empty. The new
//     vertices are isolated, so edge-derived state is unaffected, but the
//     vertex count itself is query-observable.
type Delta struct {
	Vertices []tin.VertexID
	Full     bool
}

// version is one published state of a shard. Everything in it is
// immutable except the pin count.
type version struct {
	net *tin.Network
	gen uint64
	// pending is the length of the shard's pending buffer at this version.
	pending int
	// mapping is shared by the versions whose base is one mmap'd snapshot;
	// nil for versions on the heap.
	mapping *mapping
	// pins is 1 for being the current version plus 1 per reader inside
	// Acquire..release. A version at 0 has been superseded and drained; it
	// can never be pinned again.
	pins atomic.Int64
}

// mapping tracks one mmap'd base across the versions that share it, so
// the file is unmapped exactly when none of them can be read any more.
type mapping struct {
	refs atomic.Int64  // versions over the base with pins left
	net  *tin.Network  // one of them, to unmap through
	gone chan struct{} // closed once unmapped
}

func (v *version) tryPin() bool {
	for {
		c := v.pins.Load()
		if c == 0 {
			return false
		}
		if v.pins.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

func (v *version) unpin() {
	if v.pins.Add(-1) == 0 && v.mapping != nil && v.mapping.refs.Add(-1) == 0 {
		v.mapping.net.Unmap()
		close(v.mapping.gone)
	}
}

// publish makes (n, gen, pending) the shard's current version and retires
// the one it replaces, if any (a shard's first version is published before
// the shard is shared). Callers are the shard's only writer: they hold
// sh.mu, or own the shard outright.
func (sh *Shard) publish(n *tin.Network, gen uint64, pending int) {
	next := &version{net: n, gen: gen, pending: pending}
	next.pins.Store(1)
	cur := sh.cur.Load()
	if n.MmapBacked() {
		// Derivations never map anything, so a mapped successor sits on
		// its predecessor's mapping.
		if cur != nil && cur.mapping != nil {
			next.mapping = cur.mapping
		} else {
			next.mapping = &mapping{net: n, gone: make(chan struct{})}
			sh.mappings = append(sh.mappings, next.mapping)
		}
		next.mapping.refs.Add(1)
	}
	sh.cur.Store(next)
	if cur != nil {
		cur.unpin()
	}
}

// Acquire pins the shard's current version and returns its network and
// generation together with the release function. It never blocks. The
// returned network must only be read, and only until release is called —
// after that a mapped base may be gone.
func (sh *Shard) Acquire() (n *tin.Network, gen uint64, release func()) {
	for {
		v := sh.cur.Load()
		if v.tryPin() {
			return v.net, v.gen, v.unpin
		}
		// v was superseded and drained between the load and the pin; its
		// successor was stored before that, so the next load finds it —
		// unless nothing succeeds it, which only Close arranges.
		if sh.cur.Load() == v {
			panic(fmt.Sprintf("store: network %q used after Close", sh.name))
		}
	}
}

// View runs fn on the shard's current version, pinned. fn must only read.
func (sh *Shard) View(fn func(n *tin.Network, gen uint64)) {
	n, gen, release := sh.Acquire()
	defer release()
	fn(n, gen)
}

// Generation returns the current generation. It starts at 1 (or at the
// recovered value) and increases on every append, reindex or growth that
// changes what queries can observe.
func (sh *Shard) Generation() uint64 { return sh.cur.Load().gen }

// Pending returns the number of out-of-order interactions parked in the
// pending buffer, waiting for Reindex.
func (sh *Shard) Pending() int { return sh.cur.Load().pending }

// NetStats returns the live network's summary statistics.
func (sh *Shard) NetStats() (st tin.Stats) {
	sh.View(func(n *tin.Network, _ uint64) { st = n.Stats() })
	return st
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

// draft is the version a mutation is deriving: it starts as the current
// one and is published, if it moved, when the mutation is done.
type draft struct {
	sh  *Shard
	net *tin.Network
	gen uint64
}

// bump advances the draft's generation and announces the change. The
// draft is published only after apply's step returns, so no change can be
// observed before its notification: a reader that pins generation g is
// guaranteed the subscribers already ran for every bump up to and
// including g, which is what lets delta consumers keep an exact
// per-generation record of what changed.
func (d *draft) bump(delta Delta) {
	d.gen++
	d.sh.store.notify(d.sh.name, d.gen, delta)
}

// apply performs one mutation — the three WAL ops are exactly the three
// things that can happen to a live network — for the live path (mutate,
// under sh.mu) and for recovery replay alike: it derives the next version
// from the current one and publishes it. On a validation error no
// interaction is applied or parked; only a growth (outcome.grew) can have
// happened.
func (sh *Shard) apply(m walRec) (out outcome, err error) {
	cur := sh.cur.Load()
	d := draft{sh: sh, net: cur.net, gen: cur.gen}
	switch m.op {
	case opAppend:
		out, err = d.append(m.items, m.opts)
	case opReindex:
		out.Appended, err = d.mergePending()
	case opGrow:
		if m.numV > tin.MaxVertices {
			err = fmt.Errorf("store: grow to %d vertices exceeds the %d-vertex limit", m.numV, tin.MaxVertices)
		} else {
			out.grew = d.grow(m.numV)
		}
	default:
		err = fmt.Errorf("store: unknown WAL op %d", m.op)
	}
	out.Generation = d.gen
	out.numV = d.net.NumVertices()
	if d.gen != cur.gen || len(sh.pending) != cur.pending {
		sh.publish(d.net, d.gen, len(sh.pending))
	}
	return out, err
}

// grow extends the vertex space to numV vertices, bumping the generation
// when it actually grows: the new vertices are isolated, so nothing
// edge-derived changes, but the vertex count is query-observable (batch
// "all", network listings).
func (d *draft) grow(numV int) bool {
	if numV <= d.net.NumVertices() {
		return false
	}
	d.net = d.net.WithVertices(numV)
	d.bump(Delta{})
	return true
}

// append extends the draft with a batch. Items must be internally
// time-ordered and start at or after the network's latest timestamp;
// out-of-order items are handled per opts.OnOutOfOrder. On any validation
// failure no interaction is applied or parked; the generation only moves
// if opts.Grow already extended the vertex space — even if the rest of the
// batch is then rejected, the grown space stays and cached answers for the
// old shape must die.
func (d *draft) append(items []Item, opts Options) (out outcome, err error) {
	if opts.Grow {
		maxID := -1
		for _, it := range items {
			maxID = max(maxID, int(it.From), int(it.To))
		}
		if maxID >= tin.MaxVertices {
			// Rejected before anything is derived: growth past the shared
			// ceiling would both demand an unbounded adjacency allocation
			// and produce snapshots the binary reader refuses to load.
			return out, fmt.Errorf("stream: grow to vertex %d exceeds the %d-vertex limit", maxID, tin.MaxVertices)
		}
		out.grew = d.grow(maxID + 1)
	}

	var apply, parked []Item
	skipped := 0
	last := d.net.MaxTime()
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
	// anything is derived, so a batch is admitted or rejected as a whole,
	// and so the later Reindex merge cannot fail.
	for i, it := range parked {
		if cerr := d.net.CheckItem(it); cerr != nil {
			return out, fmt.Errorf("stream: deferred item %d: %w", i, cerr)
		}
	}
	next, appended, changed, err := d.net.WithBatch(apply)
	if err != nil {
		return out, err
	}
	d.net = next
	d.sh.pending = append(d.sh.pending, parked...)
	out.Appended, out.Deferred, out.Skipped = appended, len(parked), skipped
	if appended > 0 {
		d.bump(Delta{Vertices: endpointsOf(next, changed)})
	}
	return out, nil
}

// endpointsOf flattens the changed edges' endpoints into a distinct,
// ascending vertex list — an append Delta's touched vertices.
func endpointsOf(n *tin.Network, edges []tin.EdgeID) []tin.VertexID {
	if len(edges) == 0 {
		return nil
	}
	verts := make([]tin.VertexID, 0, 2*len(edges))
	for _, e := range edges {
		ed := n.Edge(e)
		verts = append(verts, ed.From, ed.To)
	}
	slices.Sort(verts)
	return slices.Compact(verts)
}

// mergePending merges the pending out-of-order interactions into the
// draft with one full canonical re-rank, bumping the generation. It is a
// no-op (and does not bump) when nothing is pending.
func (d *draft) mergePending() (int, error) {
	if len(d.sh.pending) == 0 {
		return 0, nil
	}
	next, merged, err := d.net.WithMerged(d.sh.pending)
	if err != nil {
		// Pending items were validated on admission, and the vertex space
		// only grows: this cannot fail.
		return 0, err
	}
	d.net = next
	d.sh.pending = nil
	if merged > 0 {
		// A re-rank of the whole canonical order cannot be described by a
		// per-edge delta: consumers must treat every derived answer as
		// stale.
		d.bump(Delta{Full: true})
	}
	return merged, nil
}
