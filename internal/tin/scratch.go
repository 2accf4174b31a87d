package tin

import (
	"math"
	"sort"
	"sync"
)

// queryScratch is the reusable working memory of the extraction fast path
// (extract.go): dense epoch-stamped visited marks keyed by VertexID, the
// DFS path stack, edge-id and interaction-reference buffers for the direct
// flow-graph build, and the admission digraph's adjacency pool. Reusing one
// scratch across queries makes steady-state extraction allocate only the
// returned graph's own memory (~8 allocations) instead of a fresh
// constellation of maps per query.
//
// A scratch is reused across networks of different sizes (the mark arrays
// grow on demand) but never concurrently: Extract and BuildFlowGraph each
// check one out of scratchPool for the duration of the call.
type queryScratch struct {
	// Epoch-stamped marks: markX[v] == e means v is in the set stamped at
	// epoch e; bumping the epoch empties every set in O(1). Two mark
	// arrays exist because extraction needs two simultaneous vertex sets
	// (iterated+on-path, forward+backward reach); valA carries a value for
	// markA-guarded entries (local vertex ids, admission adjacency heads).
	epoch int32
	markA []int32
	markB []int32
	valA  []int32

	vertsA []VertexID // visit list paired with markA
	vertsB []VertexID // visit list paired with markB
	stack  []VertexID

	pathStack []EdgeID // current DFS path (edge ids)
	pathEdges []EdgeID // flat storage of all enumerated paths
	pathEnds  []int32  // exclusive end offsets into pathEdges, one per path

	edgeIDs  []EdgeID // admitted edge ids
	spareIDs []EdgeID // the other half of sortEdgeIDs' radix passes

	// Admission digraph adjacency pool: valA[v] (guarded by markA) heads a
	// linked list of out-neighbours through innerTo/innerNext.
	innerTo   []int32
	innerNext []int32

	// Direct flow-graph build buffers, indexed by position in the edge-id
	// list (see Network.buildFlowGraph).
	elf    []VertexID // local From per edge
	elt    []VertexID // local To per edge
	order  []int32    // edge positions sorted by first-interaction Ord
	gid    []EdgeID   // graph edge id per position
	lo     []int32    // in-window range start per edge
	hi     []int32    // in-window range end per edge
	runOff []int32    // arena offset per graph edge (len k+1)
	cur    []int32    // fill cursor per graph edge
	refs   []iaRef    // interaction refs, sorted into canonical order
}

// iaRef is one interaction tagged with its graph edge, used to establish
// the canonical (network Ord) insertion order during the direct build.
type iaRef struct {
	ia Interaction
	ge EdgeID
}

// scratchPool is the one pool of extraction scratch: every caller — the
// server's request goroutines, batch workers, pattern flow builds — draws
// from it, so a process settles on about one scratch per concurrently
// running query.
var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// begin readies the scratch for a query over a network with numV vertices:
// it grows the mark arrays and, when the epoch counter nears overflow,
// resets it while no stamped set is live. The headroom (2^30 epochs) is
// far beyond what a single query can consume, so mid-query resets — which
// would invalidate live stamps — cannot happen.
func (sc *queryScratch) begin(numV int) {
	if len(sc.markA) < numV {
		sc.markA = make([]int32, numV)
		sc.markB = make([]int32, numV)
		sc.valA = make([]int32, numV)
	}
	if sc.epoch >= math.MaxInt32-(1<<30) {
		clear(sc.markA)
		clear(sc.markB)
		sc.epoch = 0
	}
}

// nextEpoch starts a fresh (empty) generation of stamped sets.
func (sc *queryScratch) nextEpoch() int32 {
	sc.epoch++
	return sc.epoch
}

// growBuf returns s resized to n elements, reusing its backing array when
// large enough. Contents are unspecified.
func growBuf[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TimeWindow is an inclusive time interval [From, To]. A nil *TimeWindow
// means "unbounded" throughout the extraction API. Restricting a query to
// a window keeps exactly the interactions RestrictWindow would keep:
// From <= Time <= To (NaN bounds keep nothing, mirroring the comparison
// semantics of the filter).
type TimeWindow struct {
	From, To float64
}

// bounds returns the half-open index range [lo, hi) of seq that lies
// inside the window. seq must be in canonical order (time-sorted), which
// every finalized network and graph guarantees; the first/last-element
// span check resolves fully-inside and fully-outside sequences without a
// binary search (the Edge.Span fast path).
func (w *TimeWindow) bounds(seq []Interaction) (int, int) {
	if w == nil {
		return 0, len(seq)
	}
	if len(seq) == 0 || math.IsNaN(w.From) || math.IsNaN(w.To) || w.From > w.To {
		return 0, 0
	}
	first, last := seq[0].Time, seq[len(seq)-1].Time
	if first >= w.From && last <= w.To {
		return 0, len(seq)
	}
	if first > w.To || last < w.From {
		return 0, 0
	}
	lo := sort.Search(len(seq), func(i int) bool { return seq[i].Time >= w.From })
	hi := sort.Search(len(seq), func(i int) bool { return seq[i].Time > w.To })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
