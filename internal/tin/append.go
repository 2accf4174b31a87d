package tin

import (
	"errors"
	"fmt"
	"math"
)

// This file implements streaming append: extending a *finalized* network
// with new interactions. The paper computes flow over a fixed network; a
// live service (internal/store, internal/server) must also absorb
// interactions that arrive after load.
//
// The ordering argument relies on the canonical order being (Time, Ord):
// an interaction whose timestamp is >= the latest timestamp already in the
// network can be given the next free Ord and placed at the tail of its
// edge sequence — every ordering invariant (Ord is the global canonical
// rank, edge sequences sorted by Ord) is preserved without any re-sort.
// Because the finalized representation is an immutable CSR arena (csr.go),
// an accepted batch re-finalizes the network: applyAppend rebuilds the
// arena with the new interactions already in place. Out-of-order arrivals
// cannot keep the invariants at all; they are accepted only through
// MergeUnordered, which re-ranks the whole network before it returns — so
// a finalized network is always in canonical order and always queryable.

// ErrOutOfOrder reports an interaction whose timestamp precedes the latest
// timestamp already in the network. Callers that accept late data should
// route such interactions through MergeUnordered.
var ErrOutOfOrder = errors.New("tin: interaction out of time order")

// BatchItem is one streamed interaction destined for a finalized network:
// quantity Qty moved From -> To at time Time.
type BatchItem struct {
	From, To VertexID
	Time     float64
	Qty      float64
}

// MaxTime returns the latest interaction timestamp in the network, or -inf
// when the network has no interactions. Only valid after Finalize.
func (n *Network) MaxTime() float64 { return n.maxTime }

// GrowVertices extends the vertex space to numV vertices (existing ids are
// unchanged; new vertices start isolated). It is a no-op when the network
// already has at least numV vertices. Usable before or after Finalize —
// growing the id space does not disturb the canonical order.
func (n *Network) GrowVertices(numV int) {
	if numV <= n.numV {
		return
	}
	if !n.finalized {
		n.bOut = append(n.bOut, make([][]EdgeID, numV-n.numV)...)
		n.bIn = append(n.bIn, make([][]EdgeID, numV-n.numV)...)
		n.numV = numV
		return
	}
	// Finalized: extend the offset arrays by repeating the terminal offset,
	// so the new vertices read as isolated. On an mmap-backed network the
	// offset slices have len == cap (see mmap.go), so append reallocates to
	// the heap instead of writing to the mapping.
	for i := n.numV; i < numV; i++ {
		n.outOff = append(n.outOff, n.outOff[len(n.outOff)-1])
		n.inOff = append(n.inOff, n.inOff[len(n.inOff)-1])
	}
	n.numV = numV
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

// Append extends a finalized network with one interaction, preserving the
// canonical order. The interaction must not precede the latest timestamp
// already present (ErrOutOfOrder otherwise); equal timestamps are fine and
// order after existing ties, matching what a from-scratch rebuild would do.
func (n *Network) Append(from, to VertexID, t, q float64) error {
	_, err := n.AppendBatch([]BatchItem{{From: from, To: to, Time: t, Qty: q}})
	return err
}

// AppendBatch extends a finalized network with a time-ordered batch of
// interactions. The whole batch is validated first — vertex ranges, values,
// and time order both within the batch and against MaxTime — and nothing is
// applied unless every item passes, so a failed append leaves the network
// untouched. Self loops are skipped silently. It returns the number of
// interactions actually appended.
//
// The resulting network is indistinguishable from one built by adding the
// same interactions before Finalize: appended interactions take the next
// canonical ranks, which is exactly where the (Time, insertion index) sort
// would have placed them.
func (n *Network) AppendBatch(items []BatchItem) (int, error) {
	appended, _, err := n.AppendBatchDelta(items)
	return appended, err
}

// AppendBatchDelta is AppendBatch, additionally reporting which edges the
// batch touched: the distinct ids, in ascending order, of edges that are
// new or received new interactions. Because appends preserve existing edge
// ids and the relative canonical order of existing interactions, the
// returned delta is exactly what incremental derived-state maintenance
// needs — pattern.Tables.Update takes it verbatim, and the endpoints of the
// changed edges bound which cached query answers can differ on the new
// network state.
func (n *Network) AppendBatchDelta(items []BatchItem) (int, []EdgeID, error) {
	if !n.finalized {
		return 0, nil, errors.New("tin: AppendBatch before Finalize")
	}
	last := n.maxTime
	for i, it := range items {
		if it.From == it.To {
			continue
		}
		if err := n.CheckItem(it); err != nil {
			return 0, nil, fmt.Errorf("tin: batch item %d: %w", i, err)
		}
		if it.Time < last {
			return 0, nil, fmt.Errorf("tin: batch item %d at time %v precedes latest time %v: %w",
				i, it.Time, last, ErrOutOfOrder)
		}
		last = it.Time
	}
	appended, _, changed := n.applyAppend(items)
	return appended, changed, nil
}

// MergeUnordered admits interactions regardless of their position in time
// and integrates them before returning: when any item precedes the latest
// timestamp, the canonical order of the whole network is re-derived — the
// same (Time, insertion index) rank assignment Finalize performs — so the
// result is indistinguishable from a from-scratch rebuild with the items
// inserted last. That costs a full sort over the interactions, so callers
// should batch out-of-order arrivals and merge once; a batch that happens
// to be in time order costs no more than AppendBatch. As with AppendBatch,
// the batch is validated atomically and self loops are skipped. It returns
// the number of interactions merged.
func (n *Network) MergeUnordered(items []BatchItem) (int, error) {
	if !n.finalized {
		return 0, errors.New("tin: MergeUnordered before Finalize")
	}
	for i, it := range items {
		if it.From == it.To {
			continue
		}
		if err := n.CheckItem(it); err != nil {
			return 0, fmt.Errorf("tin: batch item %d: %w", i, err)
		}
	}
	appended, anyLate, _ := n.applyAppend(items)
	if anyLate {
		// applyAppend placed out-of-order interactions (and detached any
		// snapshot mapping); re-rank the arena-backed runs in place.
		n.nextOrd, n.maxTime = rankEdges(n.edges, n.numIA)
	}
	return appended, nil
}
