package tin

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Differential coverage for the O(footprint) query path: every Extract
// query — {seed, pair} × {no window, window} × {footprint off, on} — must
// be byte-identical to the preserved map-and-scan reference pipeline
// (extract_oracle_test.go), with windows checked against the
// Graph.RestrictWindow oracle; a seed query asked for its smallest form
// (Query.Residue) must give runs exactly when Lemma 2 holds on that graph,
// and then the graph's interactions (checkSeedRuns). The fuzz target
// additionally drives random
// append interleavings first, so the fast path is exercised on every
// internal array state appends can produce.

// graphSig renders a graph for byte-comparison; nil graphs included.
func graphSig(g *Graph) string {
	if g == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%sV=%d E=%d IA=%d dag=%v", g.String(),
		g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions(), g.IsDAG())
}

// checkGraphInvariants verifies the structural invariants the direct
// builder must establish: dense canonical Ords, time-sorted sequences,
// degree counters consistent with adjacency.
func checkGraphInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if g == nil {
		return
	}
	seen := make(map[int64]bool)
	lastTime := math.Inf(-1)
	for _, ev := range g.Events() {
		if ev.Time < lastTime {
			t.Fatalf("events not time-sorted in Ord order")
		}
		lastTime = ev.Time
		if ev.Ord < 0 || ev.Ord >= g.OrdBound() || seen[ev.Ord] {
			t.Fatalf("Ord %d out of dense range [0,%d) or duplicated", ev.Ord, g.OrdBound())
		}
		seen[ev.Ord] = true
	}
	if len(seen) != g.NumInteractions() {
		t.Fatalf("%d events, %d live interactions", len(seen), g.NumInteractions())
	}
	for v := 0; v < g.NumV; v++ {
		out, in := 0, 0
		g.OutEdges(VertexID(v), func(e EdgeID) {
			out++
			if g.Edges[e].From != VertexID(v) {
				t.Fatalf("edge %d in out-list of %d but From=%d", e, v, g.Edges[e].From)
			}
		})
		g.InEdges(VertexID(v), func(e EdgeID) { in++ })
		if out != g.OutDegree(VertexID(v)) || in != g.InDegree(VertexID(v)) {
			t.Fatalf("vertex %d: adjacency (%d out, %d in) vs degrees (%d, %d)",
				v, out, in, g.OutDegree(VertexID(v)), g.InDegree(VertexID(v)))
		}
	}
}

// oracleWindowed applies the clone-the-world oracle: reference extraction
// followed by Graph.RestrictWindow.
func oracleWindowed(g *Graph, ok bool, w *TimeWindow) (*Graph, bool) {
	if !ok || w == nil {
		return g, ok
	}
	return g.RestrictWindow(w.From, w.To), ok
}

// refExtract answers the unwindowed form of q with the reference pipeline.
func refExtract(n *Network, q Query) (*Graph, bool, []VertexID) {
	if q.Source == q.Sink {
		return refExtractSubgraphFootprint(n, q.Source, q.ExtractOptions)
	}
	return refFlowSubgraphBetweenFootprint(n, q.Source, q.Sink)
}

// checkQuery runs q (with its window, if any) footprint-on and
// footprint-off on every given copy of the network and compares against
// the reference answer (refG, refOK, refFoot) of the unwindowed query on n:
// same graph as the RestrictWindow oracle, same footprint, and a
// byte-identical graph whether or not the footprint was asked for.
func checkQuery(t *testing.T, q Query, refG *Graph, refOK bool, refFoot []VertexID, copies ...*Network) {
	t.Helper()
	wantG, wantOK := oracleWindowed(refG, refOK, q.Window)
	for ci, n := range copies {
		q.Footprint = true
		on := n.Extract(q)
		if on.Ok != wantOK || graphSig(on.Graph) != graphSig(wantG) {
			t.Fatalf("copy %d, %d->%d window %+v: fast path diverged\n got (%v): %s\nwant (%v): %s",
				ci, q.Source, q.Sink, q.Window, on.Ok, graphSig(on.Graph), wantOK, graphSig(wantG))
		}
		if !slices.Equal(on.Footprint, refFoot) {
			t.Fatalf("copy %d, %d->%d: footprint %v, want %v", ci, q.Source, q.Sink, on.Footprint, refFoot)
		}
		checkGraphInvariants(t, on.Graph)
		q.Footprint = false
		off := n.Extract(q)
		if off.Footprint != nil {
			t.Fatalf("copy %d, %d->%d: unrequested footprint %v", ci, q.Source, q.Sink, off.Footprint)
		}
		if off.Ok != on.Ok || graphSig(off.Graph) != graphSig(on.Graph) {
			t.Fatalf("copy %d, %d->%d window %+v: footprint-off answer differs from footprint-on",
				ci, q.Source, q.Sink, q.Window)
		}
		if q.Source == q.Sink {
			checkSeedRuns(t, n, q, on.Graph)
		}
	}
}

// checkSeedRuns asks the seed query q for its smallest form (Query.Residue)
// and holds it to g, the whole graph the same query gives (nil if none):
// runs exactly when Lemma 2 holds on g — every live vertex but the
// terminals has one live out-edge — with g's sizes, non-empty, and whose
// interactions, merged by Ord, are g's in its canonical order on the same
// endpoints, which is all the greedy scan reads; g itself otherwise.
func checkSeedRuns(t *testing.T, n *Network, q Query, g *Graph) {
	t.Helper()
	q.Residue, q.Footprint = true, false
	x := n.Extract(q)
	if g == nil {
		if x.Ok {
			t.Fatalf("seed %d window %+v: an instance in its smallest form, none whole", q.Source, q.Window)
		}
		return
	}
	soluble := true
	for v := 2; v < g.NumV; v++ {
		if g.VertexAlive(VertexID(v)) && g.OutDegree(VertexID(v)) != 1 {
			soluble = false
		}
	}
	if !x.Ok || x.Residue || (x.Graph == nil) != soluble {
		t.Fatalf("seed %d window %+v: ok=%v residue=%v runs=%v, Lemma 2 holds: %v", q.Source, q.Window, x.Ok, x.Residue, x.Graph == nil, soluble)
	}
	if x.Vertices != g.NumLiveVertices() || x.Edges != g.NumLiveEdges() || x.Interactions != g.NumInteractions() {
		t.Fatalf("seed %d window %+v: sizes %d/%d/%d, graph %d/%d/%d", q.Source, q.Window,
			x.Vertices, x.Edges, x.Interactions, g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions())
	}
	if x.Graph != nil {
		if graphSig(x.Graph) != graphSig(g) {
			t.Fatalf("seed %d window %+v: the graph asked in its smallest form differs from the whole one", q.Source, q.Window)
		}
		return
	}
	var got []Event
	for i, run := range x.Runs {
		if len(run) == 0 {
			t.Fatalf("seed %d window %+v: run %d is empty", q.Source, q.Window, i)
		}
		for _, ia := range run {
			got = append(got, Event{Interaction: ia, From: VertexID(x.RunFrom[i]), To: VertexID(x.RunTo[i])})
		}
	}
	slices.SortFunc(got, func(a, b Event) int { return cmp.Compare(a.Ord, b.Ord) })
	want := g.Events()
	if len(got) != len(want) {
		t.Fatalf("seed %d window %+v: %d interactions in the runs, %d in the graph", q.Source, q.Window, len(got), len(want))
	}
	for i, w := range want {
		if a := got[i]; a.Time != w.Time || a.Qty != w.Qty || a.From != w.From || a.To != w.To {
			t.Fatalf("seed %d window %+v: interaction %d is %+v in the runs, %+v in the graph", q.Source, q.Window, i, a, w)
		}
	}
}

// checkExtractEquivalence compares every seed and pair query on n against
// the reference pipeline, over a spread of windows.
func checkExtractEquivalence(t *testing.T, n *Network) {
	t.Helper()
	maxT := n.MaxTime()
	if math.IsInf(maxT, -1) {
		maxT = 0
	}
	windows := []*TimeWindow{
		nil,
		{From: math.Inf(-1), To: math.Inf(1)},
		{From: 0, To: maxT / 2},
		{From: maxT / 4, To: 3 * maxT / 4},
		{From: maxT / 2, To: maxT / 2},
		{From: maxT + 1, To: maxT + 2},
	}
	for src := 0; src < n.NumVertices(); src++ {
		for snk := 0; snk < n.NumVertices(); snk++ {
			// src == snk is the seed query around that vertex.
			q := Query{Source: VertexID(src), Sink: VertexID(snk), ExtractOptions: DefaultExtractOptions()}
			refG, refOK, refFoot := refExtract(n, q)
			for _, w := range windows {
				q.Window = w
				checkQuery(t, q, refG, refOK, refFoot, n)
			}
			// The two kept wrappers are the same queries.
			var g *Graph
			var ok bool
			if src == snk {
				g, ok = n.ExtractSubgraph(q.Source, DefaultExtractOptions())
			} else {
				g, ok = n.FlowSubgraphBetween(q.Source, q.Sink)
			}
			if ok != refOK || graphSig(g) != graphSig(refG) {
				t.Fatalf("%d->%d: wrapper diverged from reference", src, snk)
			}
		}
	}
}

// TestExtractEquivalenceRandom drives the differential check over random
// networks built with random append interleavings: a finalized base, then
// a mix of in-order batches and unordered merges.
func TestExtractEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		numV := 4 + rng.Intn(6)
		b := NewBuilder(numV)
		tm := 0.0
		randItem := func() BatchItem {
			tm += rng.Float64()
			return BatchItem{
				From: VertexID(rng.Intn(numV)), To: VertexID(rng.Intn(numV)),
				Time: tm, Qty: float64(rng.Intn(9)) + 0.5,
			}
		}
		for i, k := 0, rng.Intn(30); i < k; i++ {
			it := randItem()
			b.AddInteraction(it.From, it.To, it.Time, it.Qty)
		}
		n := b.Finalize()
		for step, steps := 0, rng.Intn(5); step < steps; step++ {
			batch := make([]BatchItem, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = randItem()
			}
			if rng.Intn(3) == 0 {
				// Late items force the re-rank path.
				for i := range batch {
					batch[i].Time = rng.Float64() * tm
				}
				var err error
				if n, _, err = n.WithMerged(batch); err != nil {
					t.Fatal(err)
				}
			} else {
				n = withBatch(t, n, batch...)
			}
		}
		checkExtractEquivalence(t, n)
	}
}

// TestSortEdgeIDs checks the pair query's radix sort against slices.Sort on
// ids that differ in one byte only, in every byte, and not at all; the small
// networks above never reach its upper bytes.
func TestSortEdgeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc queryScratch
	for _, c := range []struct {
		n    int
		base EdgeID
		span int32
	}{{0, 0, 1}, {1, 7, 1}, {5, 1 << 20, 1}, {300, 0, 256}, {300, 1 << 16, 1 << 8}, {2000, 0, math.MaxInt32}, {2000, 1 << 24, 1 << 12}} {
		sc.edgeIDs = sc.edgeIDs[:0]
		for i := 0; i < c.n; i++ {
			sc.edgeIDs = append(sc.edgeIDs, c.base+rng.Int31n(c.span))
		}
		want := slices.Sorted(slices.Values(sc.edgeIDs))
		sc.sortEdgeIDs()
		if !slices.Equal(sc.edgeIDs, want) {
			t.Errorf("%d ids from %d over %d: radix order differs from slices.Sort", c.n, c.base, c.span)
		}
	}
}

// TestBuildFlowGraph pins the public hand-built-edge-list builder against
// the reference builder, and its distinct-ids precondition: pattern
// instances are injective, so a repeated id is a caller bug and panics.
func TestBuildFlowGraph(t *testing.T) {
	b := NewBuilder(5)
	b.AddInteraction(0, 1, 1, 2)
	b.AddInteraction(1, 2, 3, 1)
	b.AddInteraction(1, 2, 7, 4)
	b.AddInteraction(2, 4, 5, 2)
	b.AddInteraction(0, 3, 9, 1)
	b.AddInteraction(3, 4, 9, 3)
	n := b.Finalize()
	ids := func(pairs ...[2]VertexID) []EdgeID {
		var out []EdgeID
		for _, p := range pairs {
			e, ok := n.HasEdge(p[0], p[1])
			if !ok {
				t.Fatalf("edge %v missing", p)
			}
			out = append(out, e)
		}
		return out
	}
	for li, list := range [][]EdgeID{
		ids([2]VertexID{0, 1}, [2]VertexID{1, 2}, [2]VertexID{2, 4}),
		ids([2]VertexID{0, 3}, [2]VertexID{3, 4}, [2]VertexID{0, 1}),
	} {
		g, want := n.BuildFlowGraph(list, 0, 4), refBuildFlowGraph(n, list, 0, 4)
		if graphSig(g) != graphSig(want) {
			t.Fatalf("list %d:\n got %s\nwant %s", li, graphSig(g), graphSig(want))
		}
		checkGraphInvariants(t, g)
	}

	dup := ids([2]VertexID{0, 1}, [2]VertexID{1, 2}, [2]VertexID{0, 1})
	defer func() {
		want := fmt.Sprintf("tin: BuildFlowGraph: duplicate edge id %d", dup[0])
		if r := recover(); r != want {
			t.Fatalf("duplicate edge id: recovered %v, want panic %q", r, want)
		}
	}()
	n.BuildFlowGraph(dup, 0, 4)
}

// decodeEquivFuzzInput splits fuzz bytes into a base network and a series
// of append operations over an 8-vertex space. Each 4-byte record is
// (from, to, time, qty); the leading byte steers chunking and windowing.
func decodeEquivFuzzInput(data []byte) (numV int, base []BatchItem, appends [][]BatchItem, unordered []bool, w *TimeWindow) {
	const numVertices = 8
	if len(data) == 0 {
		return numVertices, nil, nil, nil, nil
	}
	ctl := data[0]
	data = data[1:]
	var items []BatchItem
	for len(data) >= 4 {
		rec := data[:4]
		data = data[4:]
		it := BatchItem{
			From: VertexID(rec[0] % numVertices),
			To:   VertexID(rec[1] % numVertices),
			Time: float64(rec[2]),
			Qty:  float64(rec[3]%32) + 0.5,
		}
		if it.From == it.To {
			continue
		}
		items = append(items, it)
	}
	if ctl&1 != 0 {
		lo := float64(ctl >> 3)
		w = &TimeWindow{From: lo, To: lo + float64(ctl>>1&0x7f)}
	}
	split := len(items)
	if n := len(items); n > 0 {
		split = int(ctl>>2) % (n + 1)
	}
	base = items[:split]
	rest := items[split:]
	chunk := 1 + int(ctl>>5)
	for len(rest) > 0 {
		k := chunk
		if k > len(rest) {
			k = len(rest)
		}
		appends = append(appends, rest[:k])
		unordered = append(unordered, (len(appends)+int(ctl>>6))%2 == 0)
		rest = rest[k:]
	}
	return numVertices, base, appends, unordered, w
}

// FuzzExtractEquivalence fuzzes the frontier-driven extraction fast path
// against the scan-based reference, with and without windows, on networks
// grown through random append interleavings (in-order batches via
// WithBatch, out-of-order ones via WithMerged), and the pattern-
// instance builder BuildFlowGraph on an edge list the input chooses
// (checkBuildFlowGraph).
func FuzzExtractEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x55, 0, 1, 10, 3, 1, 2, 20, 4, 2, 0, 30, 5})
	f.Add([]byte{0xff, 0, 1, 5, 1, 1, 0, 5, 1, 0, 1, 5, 2, 1, 2, 4, 9})
	f.Add([]byte{0x03, 2, 3, 9, 1, 3, 2, 9, 1, 2, 3, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		numV, base, appends, unordered, w := decodeEquivFuzzInput(data)
		b := NewBuilder(numV)
		for _, it := range base {
			b.AddInteraction(it.From, it.To, it.Time, it.Qty)
		}
		n := b.Finalize()
		for i, batch := range appends {
			if unordered[i] {
				var err error
				if n, _, err = n.WithMerged(batch); err != nil {
					t.Fatalf("WithMerged: %v", err)
				}
				continue
			}
			// In-order appends must not precede MaxTime; shift the chunk up.
			shift := n.MaxTime()
			if math.IsInf(shift, -1) {
				shift = 0
			}
			ordered := make([]BatchItem, len(batch))
			copy(ordered, batch)
			slices.SortStableFunc(ordered, func(a, b BatchItem) int {
				if a.Time < b.Time {
					return -1
				} else if a.Time > b.Time {
					return 1
				}
				return 0
			})
			for j := range ordered {
				ordered[j].Time += shift
			}
			n = withBatch(t, n, ordered...)
		}

		for v := 0; v < numV; v++ {
			for u := 0; u < numV; u++ {
				q := Query{Source: VertexID(v), Sink: VertexID(u), ExtractOptions: DefaultExtractOptions()}
				refG, refOK, refFoot := refExtract(n, q)
				q.Window = w
				checkQuery(t, q, refG, refOK, refFoot, n)
			}
		}
		checkBuildFlowGraph(t, n, data)
	})
}

// checkBuildFlowGraph builds a flow graph over an edge list the fuzz input
// chooses — each record picks an edge, in record order, each edge once —
// with the vertex split (source == sink) and between two vertices, and
// requires the direct builder to equal the reference one, Ords included,
// and its Events to be the live interactions sorted by Ord.
func checkBuildFlowGraph(t *testing.T, n *Network, data []byte) {
	t.Helper()
	if n.NumEdges() == 0 {
		return
	}
	var ids []EdgeID
	picked := make(map[EdgeID]bool)
	for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
		e := EdgeID((int(rec[2])<<8 | int(rec[3])) % n.NumEdges())
		if !picked[e] {
			picked[e] = true
			ids = append(ids, e)
		}
	}
	numV := n.NumVertices()
	source := VertexID(int(data[0]) % numV)
	for _, sink := range []VertexID{source, VertexID((int(source) + 1 + int(data[len(data)-1])%(numV-1)) % numV)} {
		got, want := n.BuildFlowGraph(ids, source, sink), refBuildFlowGraph(n, ids, source, sink)
		if graphSig(got) != graphSig(want) {
			t.Fatalf("BuildFlowGraph(%v, %d, %d):\n got %s\nwant %s", ids, source, sink, graphSig(got), graphSig(want))
		}
		evs := got.Events()
		if want := want.Events(); !slices.Equal(evs, want) {
			t.Fatalf("BuildFlowGraph(%v, %d, %d) events:\n got %v\nwant %v", ids, source, sink, evs, want)
		}
		if want := refEvents(got); !slices.Equal(evs, want) {
			t.Fatalf("BuildFlowGraph(%v, %d, %d): Events\n%v\nsorted\n%v", ids, source, sink, evs, want)
		}
		checkGraphInvariants(t, got)
	}
}

// TestConcurrentPairQueries runs pair queries, cyclic and acyclic, windowed
// and not, from four goroutines over one network and holds each answer to
// the one the same query gave alone: the pooled scratch, labels included,
// must carry nothing from one query into another running beside it.
func TestConcurrentPairQueries(t *testing.T) {
	// Vertices 0-19 trade at random, so most of their pairs are cyclic;
	// 20-39 only ever send to a higher id, so their pairs are acyclic.
	rng := rand.New(rand.NewSource(45))
	var items []BatchItem
	for i := 0; i < 600; i++ {
		from, to := VertexID(rng.Intn(20)), VertexID(rng.Intn(20))
		if i%2 == 1 {
			from = VertexID(20 + rng.Intn(19))
			to = from + 1 + VertexID(rng.Intn(int(39-from)))
		}
		items = append(items, BatchItem{From: from, To: to, Time: float64(i), Qty: float64(rng.Intn(9)) + 0.5})
	}
	n := buildNetwork(t, 40, items)

	answer := func(x Extraction) string {
		return fmt.Sprintf("ok=%v residue=%v sizes=%d/%d/%d footprint=%v graph=%s",
			x.Ok, x.Residue, x.Vertices, x.Edges, x.Interactions, x.Footprint, graphSig(x.Graph))
	}
	var queries []Query
	var want []string
	kinds := map[[2]bool]int{} // answered instances by {residue, windowed}
	for _, part := range []VertexID{0, 20} {
		for i := 0; i < 24; i++ {
			s, d := part+VertexID(rng.Intn(20)), part+VertexID(rng.Intn(20))
			if s == d {
				continue
			}
			q := Query{Source: s, Sink: d, Footprint: true, Residue: true}
			if i%2 == 1 {
				from := float64(rng.Intn(300))
				q.Window = &TimeWindow{From: from, To: from + 300}
			}
			x := n.Extract(q)
			if x.Ok {
				kinds[[2]bool{x.Residue, q.Window != nil}]++
			}
			queries, want = append(queries, q), append(want, answer(x))
		}
	}
	for _, r := range []bool{false, true} {
		for _, w := range []bool{false, true} {
			if kinds[[2]bool{r, w}] == 0 {
				t.Fatalf("no answered pair with residue=%v windowed=%v among %d queries", r, w, len(queries))
			}
		}
	}

	rounds := 20
	if raceEnabled {
		rounds = 4
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range queries {
					j := (i + g*len(queries)/4 + r) % len(queries) // each goroutine its own rotation
					if got := answer(n.Extract(queries[j])); got != want[j] {
						t.Errorf("goroutine %d, %d->%d window %v:\n got %s\nwant %s",
							g, queries[j].Source, queries[j].Sink, queries[j].Window, got, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
