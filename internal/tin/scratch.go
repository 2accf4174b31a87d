package tin

import (
	"math"
	"sort"
	"sync"
)

// queryScratch is the reusable working memory of the extraction fast path
// (extract.go): dense epoch-stamped visited marks keyed by VertexID, the
// DFS path stack, edge-id and interaction-reference buffers for the direct
// flow-graph build, the admission digraph's adjacency pool and the pair
// residue's labels. Reusing one scratch across queries makes steady-state
// extraction allocate only the returned graph's own memory (~8
// allocations) instead of a fresh constellation of maps per query.
//
// A scratch is reused across networks of different sizes (the mark arrays
// grow on demand) but never concurrently: Extract and BuildFlowGraph each
// check one out of scratchPool for the duration of the call.
type queryScratch struct {
	// Epoch-stamped marks: markX[v] == e means v is in the set stamped at
	// epoch e; bumping the epoch empties every set in O(1). Two mark
	// arrays exist because extraction needs two simultaneous vertex sets
	// (iterated+on-path, forward+backward reach); valA carries a value for
	// markA-guarded entries (local vertex ids, admission adjacency heads,
	// the pair's cycle search state).
	epoch int32
	markA []int32
	markB []int32
	valA  []int32

	vertsA []VertexID // visit list paired with markA (a pair's: the footprint)
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
	elf   []VertexID      // local From per edge
	elt   []VertexID      // local To per edge
	order []int32         // edge positions sorted by first-interaction Ord
	key   []int64         // first-interaction Ord per position
	gid   []EdgeID        // graph edge id per position
	lo    []int32         // run start per edge (in-window, then live)
	hi    []int32         // run end per edge
	runs  [][]Interaction // run per position (cleared after the merge)
	off   []int32         // arena offset per position
	cur   []int32         // merged count per position

	// outdeg holds the out-degrees of a seed's non-empty runs by local
	// vertex (Network.seedRuns).
	outdeg []int32

	// Pair residue state (see pairWalk.residue): the earliest-arrival and
	// latest-departure labels, indexed by network vertex like the marks and
	// grown once per scratch, of which a query sets only its footprint's;
	// and the live runs before they are sorted by edge id. heap serves the
	// labelling and buildFlowGraph's merge.
	ea, ld []int64
	spans  []span
	heap   []label
}

// span is one live run of a residue: Seq[lo:hi] of edge e.
type span struct {
	e      EdgeID
	lo, hi int32
}

// label is a heap entry: in the residue's labelling, a network vertex and
// the Ord it was labelled with; in buildFlowGraph's merge, an edge
// position and the Ord of its run's head.
type label struct {
	ord int64
	v   VertexID
}

// push adds l to the min-heap sc.heap.
func (sc *queryScratch) push(l label) {
	h := append(sc.heap, l)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].ord <= l.ord {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = l
	sc.heap = h
}

// pop removes and returns the least entry of the non-empty min-heap sc.heap.
func (sc *queryScratch) pop() label {
	h := sc.heap
	l := h[len(h)-1]
	sc.heap = h[:len(h)-1]
	if len(sc.heap) == 0 {
		return l
	}
	return sc.replace(l)
}

// replace returns the least entry of the non-empty min-heap sc.heap and
// puts l in its place: a pop and a push for the price of one.
func (sc *queryScratch) replace(l label) label {
	h := sc.heap
	top := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].ord < h[c].ord {
			c++
		}
		if h[c].ord >= l.ord {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = l
	return top
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
// every finalized network and graph guarantees; a check of the first and
// last elements resolves fully-inside and fully-outside sequences without
// a binary search.
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
