package tin

import (
	"math/rand"
	"testing"
)

// TestAppendBatchDelta checks WithBatch's change report: the distinct,
// ascending ids of edges that are new or received new interactions — and
// nothing else.
func TestAppendBatchDelta(t *testing.T) {
	// Edge ids by first appearance: 0->1 is edge 0, 1->2 is edge 1.
	n := buildNetwork(t, 5, []BatchItem{{0, 1, 1, 2}, {1, 2, 2, 3}})

	// Touch edge 1 twice, create edge 2 (2->3); edge 0 is untouched.
	n, appended, changed, err := n.WithBatch([]BatchItem{
		{From: 1, To: 2, Time: 3, Qty: 1},
		{From: 2, To: 3, Time: 4, Qty: 1},
		{From: 1, To: 2, Time: 5, Qty: 1},
	})
	if err != nil {
		t.Fatalf("WithBatch: %v", err)
	}
	if appended != 3 {
		t.Fatalf("appended = %d, want 3", appended)
	}
	if len(changed) != 2 || changed[0] != 1 || changed[1] != 2 {
		t.Fatalf("changed = %v, want [1 2] (distinct, ascending)", changed)
	}

	// A batch of only self loops changes nothing.
	_, appended, changed, err = n.WithBatch([]BatchItem{{From: 3, To: 3, Time: 6, Qty: 1}})
	if err != nil || appended != 0 || changed != nil {
		t.Fatalf("self-loop batch = (%d, %v, %v), want (0, nil, nil)", appended, changed, err)
	}
}

// graphString renders an extraction result for byte comparison; negative
// answers render as their ok flag.
func graphString(g *Graph, ok bool) string {
	if !ok {
		return "!ok"
	}
	return g.String()
}

// touchesFootprint reports whether any batch item has an endpoint in the
// ascending footprint list.
func touchesFootprint(items []BatchItem, foot []VertexID) bool {
	in := make(map[VertexID]bool, len(foot))
	for _, v := range foot {
		in[v] = true
	}
	for _, it := range items {
		if it.From != it.To && (in[it.From] || in[it.To]) {
			return true
		}
	}
	return false
}

// TestFootprintCertifiesRetention pins the staleness-certificate argument
// behind delta-aware cache retention: when an appended batch touches no
// vertex of a query's recorded read footprint, re-running the query on the
// grown network must give a byte-identical answer — for seed and pair
// extractions, positive and negative alike. (The server's retention sweep
// keeps exactly such cached answers alive across ingests.)
func TestFootprintCertifiesRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const numV = 18
	for trial := 0; trial < 40; trial++ {
		var items []BatchItem
		tm := 0.0
		for i := 0; i < 60; i++ {
			tm += rng.Float64()
			items = append(items, BatchItem{
				From: VertexID(rng.Intn(numV)), To: VertexID(rng.Intn(numV)),
				Time: tm, Qty: float64(rng.Intn(9)) + 0.5,
			})
		}
		n := buildNetwork(t, numV, items)

		// Record every seed's and a sample of pairs' answers + footprints.
		opts := DefaultExtractOptions()
		type seedAnswer struct {
			want string
			foot []VertexID
		}
		seedAnswers := make([]seedAnswer, numV)
		for v := VertexID(0); v < numV; v++ {
			x := n.Extract(Query{Source: v, Sink: v, ExtractOptions: opts, Footprint: true})
			g, ok, foot := x.Graph, x.Ok, x.Footprint
			if len(foot) == 0 {
				t.Fatalf("trial %d: empty footprint for seed %d (must at least contain the seed)", trial, v)
			}
			seedAnswers[v] = seedAnswer{graphString(g, ok), foot}
		}
		type pairAnswer struct {
			src, snk VertexID
			want     string
			foot     []VertexID
		}
		var pairAnswers []pairAnswer
		for i := 0; i < 25; i++ {
			src, snk := VertexID(rng.Intn(numV)), VertexID(rng.Intn(numV))
			if src == snk {
				continue
			}
			x := n.Extract(Query{Source: src, Sink: snk, Footprint: true})
			pairAnswers = append(pairAnswers, pairAnswer{src, snk, graphString(x.Graph, x.Ok), x.Footprint})
		}

		// Append a batch concentrated on a few vertices, so plenty of
		// footprints are disjoint from it.
		lo := VertexID(rng.Intn(numV - 3))
		var batch []BatchItem
		for i := 0; i < 6; i++ {
			tm += rng.Float64()
			batch = append(batch, BatchItem{
				From: lo + VertexID(rng.Intn(3)), To: lo + VertexID(rng.Intn(3)),
				Time: tm, Qty: float64(rng.Intn(9)) + 0.5,
			})
		}
		next, _, _, err := n.WithBatch(batch)
		if err != nil {
			t.Fatalf("trial %d: append: %v", trial, err)
		}
		n = next

		checked := 0
		for v := VertexID(0); v < numV; v++ {
			if touchesFootprint(batch, seedAnswers[v].foot) {
				continue
			}
			g, ok := n.ExtractSubgraph(v, opts)
			if got := graphString(g, ok); got != seedAnswers[v].want {
				t.Fatalf("trial %d: seed %d answer changed across a footprint-disjoint append:\nbefore: %s\nafter:  %s",
					trial, v, seedAnswers[v].want, got)
			}
			checked++
		}
		for _, pa := range pairAnswers {
			if touchesFootprint(batch, pa.foot) {
				continue
			}
			g, ok := n.FlowSubgraphBetween(pa.src, pa.snk)
			if got := graphString(g, ok); got != pa.want {
				t.Fatalf("trial %d: pair %d->%d answer changed across a footprint-disjoint append:\nbefore: %s\nafter:  %s",
					trial, pa.src, pa.snk, pa.want, got)
			}
			checked++
		}
		if trial == 0 && checked == 0 {
			t.Fatal("no footprint-disjoint query in the first trial; fixture too dense to exercise retention")
		}
	}
}

// TestFootprintMatchesPlainVariant checks that asking for the footprint
// does not change the answer, and the footprint's shape: strictly ascending
// and containing the query's own vertices.
func TestFootprintMatchesPlainVariant(t *testing.T) {
	n := buildNetwork(t, 6, []BatchItem{
		{0, 1, 1, 5}, {1, 2, 2, 4}, {2, 0, 3, 3}, {3, 4, 4, 2},
	})
	opts := DefaultExtractOptions()
	for v := VertexID(0); v < 6; v++ {
		g1, ok1 := n.ExtractSubgraph(v, opts)
		x := n.Extract(Query{Source: v, Sink: v, ExtractOptions: opts, Footprint: true})
		foot := x.Footprint
		if ok1 != x.Ok || graphString(g1, ok1) != graphString(x.Graph, x.Ok) {
			t.Fatalf("seed %d: footprint variant answered differently", v)
		}
		hasSeed := false
		for i, f := range foot {
			if f == v {
				hasSeed = true
			}
			if i > 0 && foot[i-1] >= f {
				t.Fatalf("seed %d: footprint %v not strictly ascending", v, foot)
			}
		}
		if !hasSeed {
			t.Fatalf("seed %d: footprint %v misses the seed itself", v, foot)
		}
	}
	g1, ok1 := n.FlowSubgraphBetween(0, 2)
	x := n.Extract(Query{Source: 0, Sink: 2, Footprint: true})
	if ok1 != x.Ok || graphString(g1, ok1) != graphString(x.Graph, x.Ok) {
		t.Fatal("pair 0->2: footprint variant answered differently")
	}
	if len(x.Footprint) == 0 {
		t.Fatal("pair 0->2: empty footprint")
	}
}
