package tin

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"flownet/internal/par"
)

// Network is a whole interaction network (Definition 1 of the paper): a
// directed multigraph over dense vertex ids with an interaction sequence on
// every edge, laid out in a cache-local CSR layout (see csr.go); flow is
// computed on subgraphs extracted from it (ExtractSubgraph, or the pattern
// matchers in internal/pattern). A Network is made by a Builder's Finalize,
// by a loader or by a derivation of another Network.
//
// A network is an immutable value, a base (csr.go) and, over it, a tail
// (append.go) holding what was appended since the base was laid out. A base
// is one interaction arena holding every sequence back to back in
// canonical order, a flat edge table whose Seq fields are sub-slices of the
// arena, offset-based out/in adjacency and a sorted pair index; its layout
// is exactly the FNTB v2 on-disk layout, so snapshots can be mmap'd and
// served zero-copy. The tail is nil until something is appended, and
// neither is ever written once a reader can see it: an append derives the
// next version, which shares the base.
type Network struct {
	numV int
	// base is the CSR image.
	base *base
	// tail is what was appended since base was laid out; nil when nothing
	// was. Parallel edges are collapsed: an interaction on an existing
	// (from,to) pair joins that edge's sequence.
	tail *tail

	numIA   int
	nextOrd int64

	// maxTime is the latest interaction timestamp (-inf when empty); it is
	// derived by Finalize and maintained by the append path (append.go).
	maxTime float64
}

// logChunk is the number of records in one chunk AddInteraction allocates
// for a builder's log (96 KiB): a chunk is allocated whole and never grown,
// so growing the log copies nothing. Loading the 1.85 M-interaction Bitcoin
// corpus (20 000 vertices) on a shared 2-vCPU Xeon VM, the chunks allocate
// 105 MB and peak at 104 MB resident; one []logRec grown by append
// allocates 330 MB and peaks at 208–221 MB, because every growth holds the
// old and the new backing array at once, and loads 0.2 s slower. (The text
// reader logs each block's records as a chunk of its own, addChunk.)
// Finalize scatters the chunks of a log in time order in parallel, one
// chunk a claim. Tests lower it so that small logs span several chunks.
var logChunk = 1 << 12

// logRec is one interaction as the builder logs it. at is its place in its
// edge's run by insertion: how many interactions the edge had before it.
// It fills the struct's padding, so a record is 24 bytes with or without.
// (An int32 bounds an edge at 2^31 interactions, as the rank order bounds
// the log; see walkInRankOrder.)
type logRec struct {
	time, qty float64
	edge      EdgeID
	at        int32
}

// Builder is a network under construction: a write-only log that
// AddInteraction writes and Finalize reads, holding the edges in
// first-occurrence order and every interaction in insertion order. It
// holds no per-edge sequence and no adjacency; Finalize lays those out.
type Builder struct {
	numV  int
	numIA int // the records logged
	// pairs maps a pair key to its edge id and the number of interactions
	// logged on the edge.
	pairs pairTable
	// from and to are the edge table: edge e runs from[e] -> to[e].
	from, to []VertexID
	// log holds the interactions in insertion order, in chunks that are
	// never grown past their capacity.
	log [][]logRec
	qty float64 // the sum of the logged quantities
	// maxTime is the latest time logged; unsorted is set once a record
	// precedes an earlier one in time.
	maxTime  float64
	unsorted bool
}

// pairTable maps the pair keys of a builder's edges to their ids and
// counts the interactions on each: open addressing over a power-of-two
// array of slots, probed linearly from a multiplicative hash of the key and
// doubled before it is half full. Key 0 is the pair (0,0), a self loop no
// network holds, so it marks an empty slot. A slot is 16 bytes, the count
// in what would be padding, so counting costs no second cache miss. On a
// shared 2-vCPU Xeon VM it resolves and counts the 1.85 M pair keys of the
// Bitcoin corpus (20 000 vertices, 64 589 edges) in 21–24 ms, where a
// map[int64]EdgeID and a []int of counts took 56–61 ms.
type pairTable struct {
	slots []pairSlot
	shift uint // 64 − log2(len(slots))
	n     int  // the keys held
}

type pairSlot struct {
	key   int64
	id    EdgeID
	count int32 // the interactions counted on the edge
}

// add counts one interaction on key's edge. It returns the edge's id, the
// edge's count before it and whether the edge is new; a new edge gets id
// fresh.
func (p *pairTable) add(key int64, fresh EdgeID) (id EdgeID, at int32, isNew bool) {
	if 2*(p.n+1) > len(p.slots) {
		p.grow()
	}
	mask := len(p.slots) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.key == key {
			s.count++
			return s.id, s.count - 1, false
		}
		if s.key == 0 {
			*s = pairSlot{key: key, id: fresh, count: 1}
			p.n++
			return fresh, 0, true
		}
	}
}

// counts returns the count of every edge, by id, for numE edges.
func (p *pairTable) counts(numE int) []int {
	c := make([]int, numE)
	for _, s := range p.slots {
		if s.key != 0 {
			c[s.id] = int(s.count)
		}
	}
	return c
}

// home is the slot key's probe starts at: the top bits of its product with
// 2^64 divided by the golden ratio (Knuth's multiplicative hashing).
func (p *pairTable) home(key int64) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> p.shift)
}

// grow doubles the slots (to 16 at first) and places every key again.
func (p *pairTable) grow() {
	old := p.slots
	size := max(16, 2*len(old))
	p.slots = make([]pairSlot, size)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := p.home(s.key)
		for p.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		p.slots[i] = s
	}
}

// NewBuilder creates an empty network builder over numV vertices. It
// panics when numV is negative or exceeds MaxVertices.
func NewBuilder(numV int) *Builder {
	if numV < 0 || numV > MaxVertices {
		panic(fmt.Sprintf("tin: NewBuilder vertex count %d out of range [0,%d]", numV, MaxVertices))
	}
	return &Builder{numV: numV, maxTime: math.Inf(-1)}
}

func pairKey(from, to VertexID) int64 { return int64(from)<<32 | int64(uint32(to)) }

// NumVertices returns the number of vertices.
func (n *Network) NumVertices() int { return n.numV }

// NumEdges returns the number of distinct (from, to) edges.
func (n *Network) NumEdges() int {
	if n.tail != nil {
		return len(n.base.edges) + len(n.tail.fresh)
	}
	return len(n.base.edges)
}

// NumInteractions returns the total number of interactions.
func (n *Network) NumInteractions() int { return n.numIA }

// Edge returns the edge with the given id. Its Seq is one contiguous run
// wherever it lives — base arena or tail — and, like the edge itself, is
// owned by the network and must not be modified.
func (n *Network) Edge(e EdgeID) *Edge {
	if n.tail != nil {
		return n.tail.edge(n.base, e)
	}
	return &n.base.edges[e]
}

// AddInteraction records that quantity q flowed from -> to at time t,
// creating the edge if necessary. Self loops are ignored (they cannot
// affect any flow between distinct vertices) and reported as false.
func (b *Builder) AddInteraction(from, to VertexID, t, q float64) bool {
	if from == to {
		return false
	}
	if from < 0 || int(from) >= b.numV || to < 0 || int(to) >= b.numV {
		panic(fmt.Sprintf("tin: interaction (%d,%d) out of vertex range [0,%d)", from, to, b.numV))
	}
	if q < 0 || math.IsNaN(q) || math.IsNaN(t) || math.IsInf(t, 0) || math.IsInf(q, 0) {
		panic(fmt.Sprintf("tin: invalid interaction (%v,%v)", t, q))
	}
	last := len(b.log) - 1
	if last < 0 || len(b.log[last]) == cap(b.log[last]) {
		b.log = append(b.log, make([]logRec, 0, logChunk))
		last++
	}
	b.log[last] = append(b.log[last], logRec{time: t, qty: q})
	b.note(&b.log[last][len(b.log[last])-1], pairKey(from, to))
	b.numIA++
	return true
}

// addChunk logs recs, validated interactions between distinct vertices
// whose pair keys are keys, as a chunk of its own, which the log keeps. It
// does not check the vertex range: the text reader decides the vertex
// count after the last line.
func (b *Builder) addChunk(recs []logRec, keys []int64) {
	if len(recs) == 0 {
		return
	}
	for i := range recs {
		b.note(&recs[i], keys[i])
	}
	b.log = append(b.log, recs)
	b.numIA += len(recs)
}

// note fills in the edge of r, a record being logged, and its place in the
// edge's run, from its pair key, and notes its time and quantity.
func (b *Builder) note(r *logRec, key int64) {
	var isNew bool
	r.edge, r.at, isNew = b.pairs.add(key, EdgeID(len(b.from)))
	if isNew {
		b.from, b.to = append(b.from, VertexID(key>>32)), append(b.to, VertexID(uint32(key)))
	}
	if r.time < b.maxTime {
		b.unsorted = true
	} else {
		b.maxTime = r.time
	}
	b.qty += r.qty
}

// Finalize assigns the canonical order to the logged interactions and
// returns them as a network in the CSR layout. It only reads the log (the
// layout is scattered into fresh memory), so it does not consume the
// builder: more interactions may be added after it, and each call returns
// a network of everything logged so far.
func (b *Builder) Finalize() *Network {
	return &Network{numV: b.numV, base: b.layout(), numIA: b.numIA,
		nextOrd: int64(b.numIA), maxTime: b.maxTime}
}

// layout lays the log out as a base: it ranks, counts and scatters. The
// rank of a record is its position in the canonical order, by (time,
// insertion index), and each edge's run of the arena starts at a prefix
// sum of the per-edge counts. A log in time order — a saved file, a window
// of a network, a stream — is its own rank order, and a record's slot in
// its run is its place by insertion (at), so its chunks are scattered on
// every core with no cursor. Anything else is sorted once, and walking the
// log in rank order fills every run in canonical order, so no run is
// sorted on its own.
func (b *Builder) layout() *base {
	total := b.numIA
	// start[e] is where edge e's run starts.
	start := b.pairs.counts(len(b.from))
	off := 0
	for e, c := range start {
		start[e] = off
		off += c
	}
	arena := make([]Interaction, total)
	if !b.unsorted {
		// first[c] is the rank of chunk c's first record.
		first := make([]int64, len(b.log))
		for c := 1; c < len(b.log); c++ {
			first[c] = first[c-1] + int64(len(b.log[c-1]))
		}
		par.ForEach(par.Workers(0), len(b.log), func(c int) {
			rank := first[c]
			for _, r := range b.log[c] {
				arena[start[r.edge]+int(r.at)] = Interaction{Time: r.time, Qty: r.qty, Ord: rank}
				rank++
			}
		})
	} else {
		b.walkInRankOrder(arena, slices.Clone(start))
	}
	bs := &base{edges: make([]Edge, len(b.from)), arena: arena}
	for e := range bs.edges {
		end := total
		if e+1 < len(start) {
			end = start[e+1]
		}
		bs.edges[e] = Edge{From: b.from[e], To: b.to[e], Seq: arena[start[e]:end:end]}
	}
	bs.indexEdges(b.numV, nil, nil)
	bs.setQtySum(b.qty)
	return bs
}

// walkInRankOrder scatters a log out of time order into arena: it sorts the
// records into rank order once and places each at its edge's cursor, which
// starts at the edge's run and is advanced past every record placed.
func (b *Builder) walkInRankOrder(arena []Interaction, cursor []int) {
	// A key is a record's time and its place in the log, its chunk shifted
	// above its index in the chunk: ascending as the log index is, and
	// found with no division. The sort compares keys side by side in one
	// array, 16 bytes a record, where comparing the records themselves
	// would chase two of them across the log per comparison.
	type rankKey struct {
		time float64
		pos  int
	}
	longest := 1
	for _, chunk := range b.log {
		longest = max(longest, len(chunk))
	}
	shift := uint(bits.Len(uint(longest - 1)))
	keys := make([]rankKey, 0, len(arena))
	for c, chunk := range b.log {
		for j := range chunk {
			keys = append(keys, rankKey{chunk[j].time, c<<shift | j})
		}
	}
	slices.SortFunc(keys, func(x, y rankKey) int {
		switch {
		case x.time < y.time:
			return -1
		case x.time > y.time:
			return 1
		}
		return cmp.Compare(x.pos, y.pos)
	})
	mask := 1<<shift - 1
	for rank, k := range keys {
		r := &b.log[k.pos>>shift][k.pos&mask]
		arena[cursor[r.edge]] = Interaction{Time: r.time, Qty: r.qty, Ord: int64(rank)}
		cursor[r.edge]++
	}
}

// rankEdges assigns the canonical order to the interactions of an edge
// table whose current Ords are insertion indices — unique, below bound,
// ascending along every run: each gets its rank by (Time, insertion index)
// as its new Ord. Refs are placed in insertion order, not sorted into it;
// a table already in time order needs no sort at all, and otherwise one
// stable sort on Time alone is the rank order, for the refs and for any run
// out of time order. It returns the new Ord bound (the number of
// interactions ranked) and the latest timestamp (-inf when there is none).
// The Seq slices are the storage, jagged or arena-backed: the same body
// serves Graph.Finalize and the re-rank that ends WithMerged (on a
// freshly folded base nobody else can see). A network under construction
// has no edge table to rank; its Finalize ranks the log (Builder.layout).
func rankEdges(edges []Edge, bound int64) (next int64, maxTime float64) {
	byTime := func(a, b Interaction) int { return cmp.Compare(a.Time, b.Time) }
	byRefTime := func(a, b *Interaction) int { return cmp.Compare(a.Time, b.Time) }
	refs := placeByOrd(bound, func(put func(int64, *Interaction)) {
		for e := range edges {
			seq := edges[e].Seq
			if !slices.IsSortedFunc(seq, byTime) {
				slices.SortStableFunc(seq, byTime)
			}
			for i := range seq {
				put(seq[i].Ord, &seq[i])
			}
		}
	})
	if !slices.IsSortedFunc(refs, byRefTime) {
		slices.SortStableFunc(refs, byRefTime)
	}
	maxTime = math.Inf(-1)
	for rank, ia := range refs {
		ia.Ord, maxTime = int64(rank), ia.Time // the last ranked is the latest
	}
	return int64(len(refs)), maxTime
}

// HasEdge reports whether an edge from -> to exists, and returns its id.
func (n *Network) HasEdge(from, to VertexID) (EdgeID, bool) {
	key := pairKey(from, to)
	if id, ok := findPair(n.base.pairKeys, n.base.pairIDs, key); ok || n.tail == nil {
		return id, ok
	}
	return findPair(n.tail.keys, n.tail.ids, key)
}

// OutEdges returns the ids of the outgoing edges of v. The returned slice
// is owned by the network and must not be modified.
func (n *Network) OutEdges(v VertexID) []EdgeID {
	if n.tail != nil {
		if run, ok := tailRun(n.tail.out, n.tail.slots.out, v); ok {
			return run
		}
	}
	return n.base.outRun(v)
}

// InEdges returns the ids of the incoming edges of v. The returned slice is
// owned by the network and must not be modified.
func (n *Network) InEdges(v VertexID) []EdgeID {
	if n.tail != nil {
		if run, ok := tailRun(n.tail.in, n.tail.slots.in, v); ok {
			return run
		}
	}
	return n.base.inRun(v)
}

// OutDegree returns the number of distinct successors of v.
func (n *Network) OutDegree(v VertexID) int { return len(n.OutEdges(v)) }

// InDegree returns the number of distinct predecessors of v.
func (n *Network) InDegree(v VertexID) int { return len(n.InEdges(v)) }

// AvgQty returns the mean interaction quantity over the whole network
// (the "avg. flow" column of the paper's Table 4 reports per-dataset
// average transferred quantity). The sum rides the version — a base's is
// handed on from fold to fold and scanned only for an image read from disk,
// once; a tail's is kept as interactions are added — so the call does not
// cost a pass over the interactions.
func (n *Network) AvgQty() float64 {
	if n.numIA == 0 {
		return 0
	}
	s := n.base.qtySum()
	if n.tail != nil {
		s += n.tail.qty
	}
	return s / float64(n.numIA)
}

// Stats summarizes a network in the shape of the paper's Table 4.
type Stats struct {
	Vertices     int
	Edges        int
	Interactions int
	AvgQty       float64
}

// Stats returns the network's summary statistics.
func (n *Network) Stats() Stats {
	return Stats{
		Vertices:     n.numV,
		Edges:        n.NumEdges(),
		Interactions: n.numIA,
		AvgQty:       n.AvgQty(),
	}
}
