package tin

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// This file checks the CSR layout against an independent reference model.
// The Network's flat representation (interaction arena, offset-based
// adjacency, sorted pair index) is rebuilt here from first principles —
// jagged slices, maps, and a stable sort — and every observable accessor
// must agree. The fuzz target extends the same comparison to the binary
// codec and the mmap loader.

// refModel is the naive layout the CSR representation replaced: edges in
// first-occurrence order, jagged adjacency in edge-creation order, and the
// canonical interaction order produced by one stable sort on time.
type refModel struct {
	numV  int
	from  []VertexID
	to    []VertexID
	seq   [][]Interaction // per edge, canonical order
	out   [][]EdgeID
	in    [][]EdgeID
	pairs map[[2]VertexID]EdgeID
}

type refItem struct {
	from, to  VertexID
	time, qty float64
	edge      EdgeID
}

func buildRef(numV int, items []refItem) *refModel {
	r := &refModel{
		numV:  numV,
		out:   make([][]EdgeID, numV),
		in:    make([][]EdgeID, numV),
		pairs: map[[2]VertexID]EdgeID{},
	}
	for i := range items {
		it := &items[i]
		key := [2]VertexID{it.from, it.to}
		e, ok := r.pairs[key]
		if !ok {
			e = EdgeID(len(r.from))
			r.pairs[key] = e
			r.from = append(r.from, it.from)
			r.to = append(r.to, it.to)
			r.seq = append(r.seq, nil)
			r.out[it.from] = append(r.out[it.from], e)
			r.in[it.to] = append(r.in[it.to], e)
		}
		it.edge = e
	}
	// Canonical order: time ascending, insertion index breaking ties.
	sorted := make([]refItem, len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].time < sorted[j].time })
	for ord, it := range sorted {
		r.seq[it.edge] = append(r.seq[it.edge], Interaction{Time: it.time, Qty: it.qty, Ord: int64(ord)})
	}
	return r
}

// checkAgainstRef compares every observable accessor of n to the reference.
func checkAgainstRef(t *testing.T, n *Network, r *refModel) {
	t.Helper()
	if n.NumVertices() != r.numV || n.NumEdges() != len(r.from) {
		t.Fatalf("shape: %d vertices / %d edges, want %d / %d",
			n.NumVertices(), n.NumEdges(), r.numV, len(r.from))
	}
	total := 0
	for e := range r.from {
		id, ok := n.HasEdge(r.from[e], r.to[e])
		if !ok {
			t.Fatalf("edge %d->%d missing", r.from[e], r.to[e])
		}
		ed := n.Edge(id)
		if ed.From != r.from[e] || ed.To != r.to[e] {
			t.Fatalf("edge %d endpoints %d->%d, want %d->%d", id, ed.From, ed.To, r.from[e], r.to[e])
		}
		want := r.seq[e]
		if len(ed.Seq) != len(want) {
			t.Fatalf("edge %d->%d: %d interactions, want %d", ed.From, ed.To, len(ed.Seq), len(want))
		}
		for i := range want {
			if ed.Seq[i] != want[i] {
				t.Fatalf("edge %d->%d interaction %d: %+v, want %+v", ed.From, ed.To, i, ed.Seq[i], want[i])
			}
		}
		total += len(want)
	}
	if n.NumInteractions() != total {
		t.Fatalf("%d interactions, want %d", n.NumInteractions(), total)
	}
	for v := 0; v < r.numV; v++ {
		if got, want := n.OutEdges(VertexID(v)), r.out[v]; !sameEdgeIDs(got, want) {
			t.Fatalf("out adjacency of %d: %v, want %v", v, got, want)
		}
		if got, want := n.InEdges(VertexID(v)), r.in[v]; !sameEdgeIDs(got, want) {
			t.Fatalf("in adjacency of %d: %v, want %v", v, got, want)
		}
	}
	// Pair misses must stay misses (the sorted index must not invent hits),
	// among the first 64 vertices: a network read from text can have many.
	lim := min(r.numV, 64)
	for v := 0; v < lim; v++ {
		for u := 0; u < lim; u++ {
			_, want := r.pairs[[2]VertexID{VertexID(v), VertexID(u)}]
			if _, got := n.HasEdge(VertexID(v), VertexID(u)); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", v, u, got, want)
			}
		}
	}
}

func sameEdgeIDs(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decodeLayoutFuzzInput turns raw fuzz bytes into interaction records over
// a small vertex space: 4 bytes each — from, to, time, qty.
func decodeLayoutFuzzInput(data []byte) (numV int, items []refItem) {
	const numVertices = 8
	for len(data) >= 4 {
		rec := data[:4]
		data = data[4:]
		it := refItem{
			from: VertexID(rec[0] % numVertices),
			to:   VertexID(rec[1] % numVertices),
			time: float64(rec[2]),
			qty:  float64(rec[3]%32) + 0.5,
		}
		if it.from == it.to {
			continue // self loops are rejected on add; keep models aligned
		}
		items = append(items, it)
	}
	return numVertices, items
}

// FuzzLayoutEquivalence is the differential check behind the CSR refactor:
// arbitrary interaction sequences must produce a finalized network whose
// every accessor agrees with the naive reference layout, also when the
// builder's log is cut into chunks of three records, and the network must
// survive the v2 codec and the mmap loader bit-identically — extraction
// included.
func FuzzLayoutEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 10, 3, 1, 2, 20, 4})
	f.Add([]byte{0, 1, 5, 1, 1, 0, 5, 1, 0, 1, 5, 2}) // duplicate timestamps
	f.Add([]byte{2, 3, 9, 1, 2, 3, 1, 1, 2, 3, 4, 1}) // one edge, shuffled times
	f.Add([]byte{0, 1, 5, 1, 1, 2, 3, 1, 1, 0, 5, 1}) // out of time order, with a tie
	f.Add([]byte{})
	// Logs in time order with ties, and out of it, that span several chunks
	// of three records.
	f.Add([]byte{0, 1, 1, 1, 0, 1, 1, 2, 1, 2, 1, 3, 0, 1, 2, 4, 1, 2, 2, 5, 0, 1, 3, 6, 0, 1, 3, 7})
	f.Add([]byte{0, 1, 3, 1, 0, 1, 1, 2, 1, 2, 1, 3, 0, 1, 3, 4, 1, 2, 0, 5, 0, 1, 1, 6, 0, 1, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		numV, items := decodeLayoutFuzzInput(data)
		build := func() *Network {
			b := NewBuilder(numV)
			for _, it := range items {
				if !b.AddInteraction(it.from, it.to, it.time, it.qty) {
					t.Fatalf("AddInteraction(%d,%d,%g,%g) rejected", it.from, it.to, it.time, it.qty)
				}
			}
			return b.Finalize()
		}
		n := build()
		ref := buildRef(numV, items)
		checkAgainstRef(t, n, ref)
		// Again with the log in chunks of three records, which Finalize
		// scatters on more than one goroutine when the log is in time order.
		var small *Network
		withSmallChunks(func() { small = build() })
		checkAgainstRef(t, small, ref)
		if !bytes.Equal(snapshotBytes(t, small), snapshotBytes(t, n)) {
			t.Fatalf("the layout of a log in chunks of three differs from the layout of one chunk")
		}

		// The codec must reproduce the exact same layout.
		var buf bytes.Buffer
		if err := WriteNetworkBinary(&buf, n); err != nil {
			t.Fatalf("WriteNetworkBinary: %v", err)
		}
		dec, err := ReadNetworkBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadNetworkBinary: %v", err)
		}
		checkAgainstRef(t, dec, ref)

		// And so must the zero-copy loader (falls back to decoding on
		// platforms without mmap — the comparison holds either way).
		path := filepath.Join(t.TempDir(), "net.tinb")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := OpenNetworkMmap(path)
		if err != nil {
			t.Fatalf("OpenNetworkMmap: %v", err)
		}
		checkAgainstRef(t, mm, ref)

		// Extraction must be bit-identical across all three copies — and,
		// windowed or not, identical to the scan-based map-backed oracle
		// (the pre-refactor implementation), pinning the frontier-driven
		// collector on every layout the network can be served from.
		for src := 0; src < numV; src++ {
			for snk := 0; snk < numV; snk++ {
				q := Query{Source: VertexID(src), Sink: VertexID(snk), ExtractOptions: DefaultExtractOptions()}
				rg, rok, rfoot := refExtract(n, q)
				checkQuery(t, q, rg, rok, rfoot, n, dec, mm)
				q.Window = &TimeWindow{From: 64, To: 192}
				checkQuery(t, q, rg, rok, rfoot, n, dec, mm)
			}
		}
		mm.Unmap()
	})
}
