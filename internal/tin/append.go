package tin

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// This file implements streaming append: extending a network with new
// interactions. The paper computes flow over a fixed network; a
// live service (internal/store, internal/server) must also absorb
// interactions that arrive after load.
//
// The ordering argument relies on the canonical order being (Time, Ord):
// an interaction whose timestamp is >= the latest timestamp already in the
// network can be given the next free Ord and placed at the end of its edge
// sequence — every ordering invariant (Ord is the global canonical rank,
// edge sequences sorted by Ord) is preserved without any re-sort.
//
// A network is an immutable value, so an append is a derivation:
// appended returns the next version, which shares the base image (csr.go)
// and carries everything added since that base in a tail — the grown runs
// of touched edges, the new edges, the extended adjacency runs of their
// endpoints and their pair keys. Deriving costs O(batch) plus a copy of the
// tail's tables, which foldTailAt bounds; no arena is allocated, no pair
// index sorted, no adjacency rebuilt, also when every item opens a new
// edge. The one O(N) step is the fold of base + tail into a fresh base
// (rebuilt), taken when the tail passes foldTailAt and by owners that are
// about to pay O(N) anyway (the store's checkpoint). Readers of an older
// version are never disturbed: what they can see is never written again.
//
// Out-of-order arrivals cannot keep the invariants at all; they are
// accepted only through WithMerged, which folds and re-ranks the whole
// network before it returns — so a network is always in canonical order
// and always queryable.
//
// A network changes only by derivation: WithBatch, WithMerged
// and WithVertices return the next version and leave the receiver as it
// was. AppendBatch is WithBatch for a single owner, assigned over the
// receiver.

// foldTailAt is the number of interactions a tail may hold before the
// version that reaches it is folded. Measured on the load benchmark's shape
// (6000-vertex Bitcoin corpus, 542 K interactions growing to 700 K over 40
// fold cycles; 32 uniform-endpoint items per batch, every item opening an
// edge): deriving a version costs 40 us on a near-empty tail and grows with
// the copy of the tail's tables to 130 us just before the fold, 75 us on
// average; the fold costs 14.5 ms, 113 us a batch over the 128 batches
// between folds — 0.19 ms a batch all told, where rebuilding the arena per
// batch cost 13.5 ms. Halving the bound doubles the fold's share and saves
// about 35 us of copying, doubling it does the opposite, and both land
// within a tenth of this total; 4096 keeps the worst derive and the
// amortised fold each near the 0.2 ms a durable append costs before it
// reaches this package.
const foldTailAt = 4096

// ErrOutOfOrder reports an interaction whose timestamp precedes the latest
// timestamp already in the network. Callers that accept late data should
// route such interactions through WithMerged.
var ErrOutOfOrder = errors.New("tin: interaction out of time order")

// BatchItem is one streamed interaction destined for a finalized network:
// quantity Qty moved From -> To at time Time.
type BatchItem struct {
	From, To VertexID
	Time     float64
	Qty      float64
}

// tail is what a version holds on top of its base. The tables are the
// version's own (copied when the next version is derived, so a reader's
// are never written); the runs they point at — edge sequences and adjacency
// runs — are shared along the line of versions and only ever grow past the
// length an older version's table records, so sharing them is safe and an
// append to a run with spare capacity copies nothing. A network under
// construction is a Builder (network.go), which has no tail.
type tail struct {
	// slots finds a base edge's or a vertex's entry in the tables below.
	slots *slots
	// grown holds the base edges that received interactions since the
	// base, in first-touch order: on first touch the base run is copied
	// into a run of its own, which then grows geometrically.
	grown []Edge
	// fresh holds the edges opened since the base; fresh[i] has id
	// len(base.edges)+i, continuing the sequence in first-occurrence order.
	fresh []Edge
	// out and in hold the full adjacency runs (base run, then the new ids)
	// of the vertices that gained an edge, in first-touch order.
	out, in [][]EdgeID
	// keys and ids are the sorted pair index of the fresh edges. They are
	// never written in place: a batch that opens edges merges a new pair.
	keys []int64
	ids  []EdgeID
	// added counts, and qty sums, the interactions appended since the base.
	added int
	qty   float64
}

// slots maps base edge ids and vertex ids to 1-based positions in a tail's
// grown and out/in tables; 0 means "not in the tail". The arrays are shared
// by every version of one line: a position is assigned once, by the line's
// writer, and a reader that finds a position past the end of its own
// version's table knows the entry was added later and reads the base
// instead — hence the atomics, which cost a plain load.
type slots struct {
	edge    []atomic.Int32
	out, in []atomic.Int32
}

// edge returns edge e of a version with a tail.
func (t *tail) edge(b *base, e EdgeID) *Edge {
	if i := int(e) - len(b.edges); i >= 0 {
		return &t.fresh[i]
	}
	if s := int(t.slots.edge[e].Load()); s != 0 && s <= len(t.grown) {
		return &t.grown[s-1]
	}
	return &b.edges[e]
}

// tailRun returns v's extended adjacency run out of a tail's out or in
// table, if the tail holds one.
func tailRun(runs [][]EdgeID, slot []atomic.Int32, v VertexID) ([]EdgeID, bool) {
	if s := int(slot[v].Load()); s != 0 && s <= len(runs) {
		return runs[s-1], true
	}
	return nil, false
}

// withRoom copies s into an array of its own with room for extra more.
func withRoom[T any](s []T, extra int) []T {
	return append(make([]T, 0, len(s)+extra), s...)
}

// grownSlots returns slot, or a longer copy of it when it cannot index
// numV vertices (over-allocated, so a stream that keeps introducing
// vertices copies it rarely).
func grownSlots(slot []atomic.Int32, numV int) []atomic.Int32 {
	if len(slot) >= numV {
		return slot
	}
	next := make([]atomic.Int32, numV+numV/4+16)
	for i := range slot {
		next[i].Store(slot[i].Load())
	}
	return next
}

// fork starts the tail of n's successor: a copy of n's tail tables with
// room for a batch of the given size, indexing numV vertices. It returns
// nil when n is not the newest version over its base — a second line may
// not extend the shared runs (see base.tip).
func (n *Network) fork(numV, room int) *tail {
	b, old := n.base, n.tail
	t := &tail{}
	if !b.tip.CompareAndSwap(old, t) {
		return nil
	}
	if old == nil {
		t.slots = &slots{
			edge: make([]atomic.Int32, len(b.edges)),
			out:  make([]atomic.Int32, numV),
			in:   make([]atomic.Int32, numV),
		}
		return t
	}
	*t = *old
	t.grown = withRoom(old.grown, room)
	t.fresh = withRoom(old.fresh, room)
	t.out = withRoom(old.out, room)
	t.in = withRoom(old.in, room)
	if len(old.slots.out) < numV {
		t.slots = &slots{
			edge: old.slots.edge,
			out:  grownSlots(old.slots.out, numV),
			in:   grownSlots(old.slots.in, numV),
		}
	}
	return t
}

// own returns edge e's entry in t's tables for the writer to extend,
// moving a base edge into the tail on first touch. The pointer is valid
// until the next call.
func (t *tail) own(b *base, e EdgeID) *Edge {
	if i := int(e) - len(b.edges); i >= 0 {
		return &t.fresh[i]
	}
	s := int(t.slots.edge[e].Load())
	if s == 0 {
		be := &b.edges[e]
		run := append(make([]Interaction, 0, 2*len(be.Seq)+2), be.Seq...)
		t.grown = append(t.grown, Edge{From: be.From, To: be.To, Seq: run})
		s = len(t.grown)
		t.slots.edge[e].Store(int32(s))
	}
	return &t.grown[s-1]
}

// extend appends edge id to v's adjacency run in runs, moving the base run
// into the tail on first touch.
func extend(runs [][]EdgeID, slot []atomic.Int32, baseRun []EdgeID, v VertexID, id EdgeID) [][]EdgeID {
	s := int(slot[v].Load())
	if s == 0 {
		runs = append(runs, append(make([]EdgeID, 0, 2*len(baseRun)+2), baseRun...))
		s = len(runs)
		slot[v].Store(int32(s))
	}
	runs[s-1] = append(runs[s-1], id)
	return runs
}

// mergePairs merges two sorted pair indexes into arrays of their own.
func mergePairs(keys []int64, ids []EdgeID, addKeys []int64, addIDs []EdgeID) ([]int64, []EdgeID) {
	outK := make([]int64, 0, len(keys)+len(addKeys))
	outI := make([]EdgeID, 0, len(keys)+len(addKeys))
	i, j := 0, 0
	for i < len(keys) || j < len(addKeys) {
		if j == len(addKeys) || (i < len(keys) && keys[i] < addKeys[j]) {
			outK, outI = append(outK, keys[i]), append(outI, ids[i])
			i++
		} else {
			outK, outI = append(outK, addKeys[j]), append(outI, addIDs[j])
			j++
		}
	}
	return outK, outI
}

// appended derives the version of a finalized network that additionally
// holds the pre-validated items — the one step behind every streaming
// generation bump. Self loops are skipped. It returns the derived version
// (n itself when nothing was applied), the number of interactions appended,
// whether any appended item was out of time order relative to the evolving
// maximum timestamp (the caller decides whether that is legal, and must
// re-rank if so), and the distinct ids of the edges that are new or
// received new interactions, in ascending order — the change delta that
// incremental consumers (pattern-table updates, footprint-based cache
// retention) key on.
func (n *Network) appended(items []BatchItem) (next *Network, count int, anyLate bool, changed []EdgeID) {
	apply := items[:0:0]
	for _, it := range items {
		if it.From != it.To {
			apply = append(apply, it)
		}
	}
	if len(apply) == 0 {
		return n, 0, false, nil
	}
	t := n.fork(n.numV, len(apply))
	if t == nil {
		n = n.rebuilt()
		t = n.fork(n.numV, len(apply))
	}
	b := n.base
	next = &Network{numV: n.numV, base: b, tail: t,
		numIA: n.numIA + len(apply), nextOrd: n.nextOrd, maxTime: n.maxTime}

	// Resolve every item's edge, opening missing edges in first-occurrence
	// order (ids continue the existing sequence, so adjacency runs stay
	// ascending by id), and place the interaction at the end of its run.
	var opened map[int64]EdgeID
	for _, it := range apply {
		key := pairKey(it.From, it.To)
		id, ok := findPair(b.pairKeys, b.pairIDs, key)
		if !ok {
			id, ok = findPair(t.keys, t.ids, key)
		}
		if !ok {
			id, ok = opened[key]
		}
		if !ok {
			id = EdgeID(len(b.edges) + len(t.fresh))
			t.fresh = append(t.fresh, Edge{From: it.From, To: it.To})
			t.out = extend(t.out, t.slots.out, b.outRun(it.From), it.From, id)
			t.in = extend(t.in, t.slots.in, b.inRun(it.To), it.To, id)
			if opened == nil {
				opened = make(map[int64]EdgeID)
			}
			opened[key] = id
		}
		ed := t.own(b, id)
		ed.Seq = append(ed.Seq, Interaction{Time: it.Time, Qty: it.Qty, Ord: next.nextOrd})
		next.nextOrd++
		changed = append(changed, id)
		if it.Time < next.maxTime {
			anyLate = true
		} else {
			next.maxTime = it.Time
		}
		t.qty += it.Qty
	}
	t.added += len(apply)
	if len(opened) > 0 {
		add := &pairSorter{make([]int64, 0, len(opened)), make([]EdgeID, 0, len(opened))}
		for key, id := range opened {
			add.keys, add.ids = append(add.keys, key), append(add.ids, id)
		}
		sort.Sort(add)
		t.keys, t.ids = mergePairs(t.keys, t.ids, add.keys, add.ids)
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	if t.added >= foldTailAt {
		next = next.rebuilt()
	}
	return next, len(apply), anyLate, changed
}

// rebuilt returns the same network over a fresh base with an empty tail —
// the fold. The image is byte-identical to what Finalize would lay out for
// the same interactions in the same order.
func (n *Network) rebuilt() *Network {
	next := *n
	// Two sorted indexes merge in O(E) where a sort of all edges was a third
	// of a fold. The merge copies, also when there is no tail to merge in:
	// the old base's arrays may be a mapping that will not outlive it.
	var tailKeys []int64
	var tailIDs []EdgeID
	qty := n.base.qtySum()
	if n.tail != nil {
		tailKeys, tailIDs = n.tail.keys, n.tail.ids
		qty += n.tail.qty
	}
	keys, ids := mergePairs(n.base.pairKeys, n.base.pairIDs, tailKeys, tailIDs)
	next.base = buildBase(n.numV, n.NumEdges(), n.numIA, n.Edge, keys, ids)
	// The quantity sum is carried over, not scanned again after every fold.
	next.base.setQtySum(qty)
	next.tail = nil
	return &next
}

// Folded returns the network with its tail folded into a fresh base; a
// network without a tail is returned as it is. A fold is O(N): it is for
// owners about to spend that anyway, such as a snapshot write — appends
// fold on their own when the tail passes a fixed size.
func (n *Network) Folded() *Network {
	if n.tail == nil {
		return n
	}
	return n.rebuilt()
}

// become assigns a derived version over its single owner's receiver. A
// mapped base the receiver leaves behind is released: with one owner,
// nothing else can be reading it.
func (n *Network) become(next *Network) {
	if next == n {
		return
	}
	old := n.base
	*n = *next
	if old != n.base && old.mm != nil {
		old.mm.close()
	}
}

// MaxTime returns the latest interaction timestamp in the network, or -inf
// when the network has no interactions.
func (n *Network) MaxTime() float64 { return n.maxTime }

// WithVertices returns the network with its vertex space extended to numV
// vertices (existing ids are unchanged; new vertices start isolated), or
// the network itself when it already has that many. Growing the id space
// does not disturb the canonical order and copies nothing of the base.
func (n *Network) WithVertices(numV int) *Network {
	if numV <= n.numV {
		return n
	}
	next := *n
	next.numV = numV
	if n.tail != nil {
		// The tail's vertex slots must cover the new ids.
		if next.tail = n.fork(numV, 0); next.tail == nil {
			return n.rebuilt().WithVertices(numV)
		}
	}
	return &next
}

// CheckItem validates an append candidate's vertex range and values
// without applying it — the pre-admission check used by callers (such as
// internal/store) that buffer items for a later merge.
func (n *Network) CheckItem(it BatchItem) error {
	if it.From < 0 || int(it.From) >= n.numV || it.To < 0 || int(it.To) >= n.numV {
		return fmt.Errorf("tin: interaction (%d,%d) out of vertex range [0,%d)", it.From, it.To, n.numV)
	}
	if it.Qty < 0 || math.IsNaN(it.Qty) || math.IsInf(it.Qty, 0) || math.IsNaN(it.Time) || math.IsInf(it.Time, 0) {
		return fmt.Errorf("tin: invalid interaction (%v,%v)", it.Time, it.Qty)
	}
	return nil
}

// checkBatch validates a whole batch before anything is derived from it:
// every non-loop item must pass CheckItem and, when ordered, must not
// precede its predecessor or MaxTime.
func (n *Network) checkBatch(items []BatchItem, ordered bool) error {
	last := n.maxTime
	for i, it := range items {
		if it.From == it.To {
			continue
		}
		if err := n.CheckItem(it); err != nil {
			return fmt.Errorf("tin: batch item %d: %w", i, err)
		}
		if !ordered {
			continue
		}
		if it.Time < last {
			return fmt.Errorf("tin: batch item %d at time %v precedes latest time %v: %w",
				i, it.Time, last, ErrOutOfOrder)
		}
		last = it.Time
	}
	return nil
}

// AppendBatch extends a finalized network with a time-ordered batch of
// interactions: WithBatch, assigned over its single owner's receiver. The
// whole batch is validated first — vertex ranges, values, and time order
// both within the batch and against MaxTime — and nothing is applied
// unless every item passes, so a failed append leaves the network
// untouched. Self loops are skipped silently. It returns the number of
// interactions actually appended.
//
// The resulting network is indistinguishable from one a Builder finalizes
// after the same interactions are added: appended interactions take the next
// canonical ranks, which is exactly where the (Time, insertion index) sort
// would have placed them.
func (n *Network) AppendBatch(items []BatchItem) (int, error) {
	next, appended, _, err := n.WithBatch(items)
	if err != nil {
		return 0, err
	}
	n.become(next)
	return appended, nil
}

// WithBatch returns the version of a finalized network extended by a
// time-ordered batch (validated as AppendBatch describes) and leaves the
// receiver — which readers may be using — exactly as it was. Only the
// newest version of a network should be extended; an older one still can
// be, at the price of a fold.
//
// changed reports which edges the batch touched: the distinct ids, in
// ascending order, of edges that are new or received new interactions.
// Because appends preserve existing edge ids and the relative canonical
// order of existing interactions, it is exactly what incremental
// derived-state maintenance needs: the endpoints of the changed edges are
// the touched vertices pattern.Tables.Update takes, and they bound which
// cached query answers can differ on the new version.
func (n *Network) WithBatch(items []BatchItem) (next *Network, appended int, changed []EdgeID, err error) {
	if err := n.checkBatch(items, true); err != nil {
		return nil, 0, nil, err
	}
	next, appended, _, changed = n.appended(items)
	return next, appended, changed, nil
}

// WithMerged returns the version of a finalized network that admits
// interactions regardless of their position in time, integrated before it
// returns: when any item precedes the latest timestamp, the version is
// folded and the canonical order of the whole network re-derived — the
// same (Time, insertion index) rank assignment Finalize performs — so the
// result is indistinguishable from a from-scratch rebuild with the items
// inserted last. That costs a full sort over the interactions, so callers
// should batch out-of-order arrivals and merge once; a batch that happens
// to be in time order costs no more than WithBatch. As with WithBatch, the
// batch is validated atomically, self loops are skipped and the receiver
// is left as it was. It returns the number of interactions merged.
func (n *Network) WithMerged(items []BatchItem) (next *Network, merged int, err error) {
	if err := n.checkBatch(items, false); err != nil {
		return nil, 0, err
	}
	next, merged, anyLate, _ := n.appended(items)
	if anyLate {
		// The late items sit at the ends of their runs. Fold, so that every
		// run lies in an arena no other version shares, and re-rank there.
		next = next.Folded()
		next.nextOrd, next.maxTime = rankEdges(next.base.edges, next.nextOrd)
	}
	return next, merged, nil
}
