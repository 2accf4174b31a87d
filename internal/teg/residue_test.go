package teg

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"flownet/internal/tin"
)

// Differential coverage for tin's pair residue (tin.Query.Residue): a
// cyclic pair instance extracted as its residue must hold exactly the
// interactions this package's prune keeps of the whole instance, attached to
// the same network endpoints, and solve to the same bits; everything else
// about the answer is the whole instance's.

// residueNetwork builds a network on eight vertices from fuzz bytes: 4-byte
// records (from, to, time, qty), the leading byte steering the window, how
// many records form the finalized base, and how the rest is appended — in
// time order (shifted past the latest time) or merged out of order. Every
// interaction gets a quantity no other one has, so a quantity names its
// network interaction; ends maps it to the interaction's endpoints.
func residueNetwork(data []byte) (n *tin.Network, w *tin.TimeWindow, ends map[float64][2]tin.VertexID) {
	const numV, maxItems = 8, 512
	b := tin.NewBuilder(numV)
	ends = map[float64][2]tin.VertexID{}
	if len(data) == 0 {
		n = b.Finalize()
		return n, nil, ends
	}
	ctl := data[0]
	var items []tin.BatchItem
	for rec := data[1:]; len(rec) >= 4 && len(items) < maxItems; rec = rec[4:] {
		it := tin.BatchItem{
			From: tin.VertexID(rec[0] % numV), To: tin.VertexID(rec[1] % numV),
			Time: float64(rec[2]), Qty: float64(rec[3]%32) + 0.5 + float64(len(items))/(2*maxItems),
		}
		if it.From != it.To {
			ends[it.Qty] = [2]tin.VertexID{it.From, it.To}
			items = append(items, it)
		}
	}
	if ctl&1 != 0 {
		lo := float64(ctl >> 3)
		w = &tin.TimeWindow{From: lo, To: lo + float64(ctl>>1&0x7f)}
	}
	split := int(ctl>>2) % (len(items) + 1)
	for _, it := range items[:split] {
		b.AddInteraction(it.From, it.To, it.Time, it.Qty)
	}
	n = b.Finalize()
	chunk := 1 + int(ctl>>5)
	for k, rest := 0, items[split:]; len(rest) > 0; k++ {
		batch := append([]tin.BatchItem(nil), rest[:min(chunk, len(rest))]...)
		rest = rest[len(batch):]
		var err error
		if (k+int(ctl>>6))%2 == 0 {
			if n, _, err = n.WithMerged(batch); err != nil {
				panic(err)
			}
			continue
		}
		shift := max(n.MaxTime(), 0)
		slices.SortStableFunc(batch, func(a, b tin.BatchItem) int { return cmp.Compare(a.Time, b.Time) })
		for i := range batch {
			batch[i].Time += shift
		}
		if n, _, _, err = n.WithBatch(batch); err != nil {
			panic(err)
		}
	}
	return n, w, ends
}

// checkPairResidue compares, for every pair of n with and without w, the
// residue query with the whole one, and returns how many cyclic instances
// had an empty residue.
func checkPairResidue(t *testing.T, n *tin.Network, w *tin.TimeWindow, ends map[float64][2]tin.VertexID) (empty int) {
	t.Helper()
	windows := []*tin.TimeWindow{nil}
	if w != nil {
		windows = append(windows, w)
	}
	for s := 0; s < n.NumVertices(); s++ {
		for d := 0; d < n.NumVertices(); d++ {
			if s == d {
				continue
			}
			for _, win := range windows {
				q := tin.Query{Source: tin.VertexID(s), Sink: tin.VertexID(d), Footprint: true}
				q.Window = win
				full := n.Extract(q)
				q.Residue = true
				res := n.Extract(q)
				if res.Ok != full.Ok || !slices.Equal(res.Footprint, full.Footprint) {
					t.Fatalf("%d->%d window %v: residue query ok=%v footprint %v, whole ok=%v footprint %v",
						s, d, win, res.Ok, res.Footprint, full.Ok, full.Footprint)
				}
				if !full.Ok {
					if res.Graph != nil || res.Residue || [3]int{res.Vertices, res.Edges, res.Interactions} != [3]int{} {
						t.Fatalf("%d->%d window %v: no instance, yet the residue query reports graph %v, residue %v and sizes %d/%d/%d",
							s, d, win, res.Graph, res.Residue, res.Vertices, res.Edges, res.Interactions)
					}
					continue
				}
				if checkResidue(t, s, d, win, full, res, ends) {
					empty++
				}
			}
		}
	}
	return empty
}

// checkResidue checks one answered pair and reports whether it was a
// cyclic instance with an empty residue.
func checkResidue(t *testing.T, s, d int, win *tin.TimeWindow, full, res tin.Extraction, ends map[float64][2]tin.VertexID) bool {
	t.Helper()
	g := full.Graph
	sizes := [3]int{g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions()}
	if got := [3]int{full.Vertices, full.Edges, full.Interactions}; got != sizes {
		t.Fatalf("%d->%d window %v: whole query reports sizes %v, its graph has %v", s, d, win, got, sizes)
	}
	if got := [3]int{res.Vertices, res.Edges, res.Interactions}; got != sizes {
		t.Fatalf("%d->%d window %v: residue query reports sizes %v, the instance has %v", s, d, win, got, sizes)
	}
	if res.Residue != !g.IsDAG() || full.Residue {
		t.Fatalf("%d->%d window %v: Residue=%v on a DAG=%v instance (whole query: %v)", s, d, win, res.Residue, g.IsDAG(), full.Residue)
	}
	if !res.Residue {
		if res.Graph.String() != g.String() {
			t.Fatalf("%d->%d window %v: an acyclic instance must come back whole\n got %s\nwant %s", s, d, win, res.Graph, g)
		}
		return false
	}

	r := res.Graph
	want := live(g, g.Events(), make([]int32, g.NumV))
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("%d->%d window %v: residue has %d interactions, the engine keeps %d of the instance\nresidue %s\ninstance %s",
			s, d, win, len(got), len(want), r, g)
	}
	// A residue vertex stands for one network vertex throughout, source and
	// sink included.
	net := map[tin.VertexID]tin.VertexID{r.Source: tin.VertexID(s), r.Sink: tin.VertexID(d)}
	local := map[tin.VertexID]tin.VertexID{tin.VertexID(s): r.Source, tin.VertexID(d): r.Sink}
	bind := func(l, v tin.VertexID) {
		if x, ok := net[l]; ok && x != v {
			t.Fatalf("%d->%d window %v: residue vertex %d stands for network vertices %d and %d", s, d, win, l, x, v)
		}
		if x, ok := local[v]; ok && x != l {
			t.Fatalf("%d->%d window %v: network vertex %d is residue vertices %d and %d", s, d, win, v, x, l)
		}
		net[l], local[v] = v, l
	}
	for i, ev := range got {
		if ev.Time != want[i].Time || ev.Qty != want[i].Qty {
			t.Fatalf("%d->%d window %v: residue interaction %d is %v, the engine keeps %v", s, d, win, i, ev.Interaction, want[i].Interaction)
		}
		e := ends[ev.Qty]
		bind(ev.From, e[0])
		bind(ev.To, e[1])
	}
	if len(live(r, r.Events(), make([]int32, r.NumV))) != len(got) {
		t.Fatalf("%d->%d window %v: the engine drops interactions of the residue", s, d, win)
	}
	if a, b := MaxFlow(r), MaxFlow(g); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%d->%d window %v: residue flow %v, instance flow %v", s, d, win, a, b)
	}
	if len(got) > 0 {
		return false
	}
	if r.NumV != 2 || r.NumLiveEdges() != 0 || MaxFlow(r) != 0 {
		t.Fatalf("%d->%d window %v: empty residue is %s, want a two-vertex graph with flow 0", s, d, win, r)
	}
	return true
}

// emptyResidueSeed is a network whose pair 0->3 is cyclic (1 and 2 send to
// each other) and has no live interaction: 0 reaches 1 only after 1 has sent
// everything it will send.
var emptyResidueSeed = []byte{16, 0, 1, 5, 1, 1, 2, 1, 2, 2, 1, 2, 3, 1, 3, 1, 4}

// FuzzPairResidue holds the residue query to the whole instance: same Ok
// and footprint, the instance's sizes, a residue exactly when the instance
// is cyclic, then the engine's live interactions and the same max-flow
// bits; every pair, with and without a window, on networks grown through
// appends and unordered merges.
func FuzzPairResidue(f *testing.F) {
	f.Add([]byte{0})
	f.Add(emptyResidueSeed)
	f.Add([]byte{0x55, 0, 1, 10, 3, 1, 2, 20, 4, 2, 1, 30, 5, 2, 3, 40, 6})
	f.Add([]byte{0xff, 0, 1, 5, 1, 1, 0, 5, 1, 0, 1, 5, 2, 1, 2, 4, 9})
	f.Add([]byte{0x40, 0, 1, 1, 9, 1, 2, 2, 9, 2, 1, 3, 9, 2, 3, 4, 9, 1, 3, 5, 9, 3, 4, 6, 9})
	// Window [2, 13]: of pair 0->3 it empties 0->1, the only edge into the
	// cycle 1<->2, so no non-empty edge reaches the cycle from the source.
	f.Add([]byte{23, 0, 1, 1, 1, 1, 2, 10, 2, 2, 1, 11, 3, 2, 3, 12, 4, 0, 3, 13, 5})
	// A DAG: every pair is answered whole.
	f.Add([]byte{20, 0, 1, 1, 1, 1, 2, 2, 2, 0, 2, 3, 3, 2, 3, 4, 4, 1, 3, 5, 5})
	// Pair 0->5: the source reaches the cycle 1<->2, the sink is reached from
	// the cycle 3<->4 and sends to the source, but the source is not
	// backward-reachable.
	f.Add([]byte{28, 0, 1, 1, 1, 1, 2, 2, 2, 2, 1, 3, 3, 3, 4, 4, 4, 4, 3, 5, 5, 4, 5, 6, 6, 5, 0, 7, 7})
	// Pair 0->3: 4 is reached at 22, after 2 last departs at 20, and its
	// run to 2 has an interaction at 21 between the two labels.
	f.Add([]byte{40, 0, 1, 10, 1, 1, 2, 2, 2, 1, 2, 18, 3, 2, 3, 6, 4, 2, 3, 20, 5, 0, 4, 22, 6, 4, 2, 4, 7, 4, 2, 21, 8, 4, 2, 24, 9, 2, 1, 1, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, w, ends := residueNetwork(data)
		checkPairResidue(t, n, w, ends)
	})
}

// TestPairResidueEmpty pins the residue with no live interaction: it is
// still an answer — a two-vertex graph with flow 0, not a missing graph.
func TestPairResidueEmpty(t *testing.T) {
	n, _, ends := residueNetwork(emptyResidueSeed)
	x := n.Extract(tin.Query{Source: 0, Sink: 3, Residue: true})
	if !x.Ok || !x.Residue || x.Graph == nil || x.Graph.NumInteractions() != 0 || x.Interactions != 4 {
		t.Fatalf("pair 0->3: ok=%v residue=%v graph %v of %d interactions, want an empty residue of 4", x.Ok, x.Residue, x.Graph, x.Interactions)
	}
	if empty := checkPairResidue(t, n, nil, ends); empty == 0 {
		t.Fatal("no pair of the network has an empty residue")
	}
}
