package core

import (
	"slices"
	"sort"
	"testing"

	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// sortedEvents is Graph.Events as it was before it walked the Ord index —
// gather the live interactions, then comparison-sort them — kept as the
// reference the walk is compared with.
func sortedEvents(g *tin.Graph) []tin.Event {
	var evs []tin.Event
	for id := range g.Edges {
		if !g.EdgeAlive(tin.EdgeID(id)) {
			continue
		}
		e := &g.Edges[id]
		for _, ia := range e.Seq {
			evs = append(evs, tin.Event{Interaction: ia, From: e.From, To: e.To, Edge: tin.EdgeID(id)})
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].Ord < evs[b].Ord })
	return evs
}

// checkEvents requires Events, and the interactions the greedy scan visits
// (it walks the index itself, not Events), to equal the sorted reference,
// and every Ord to be unique and inside [0, OrdBound).
func checkEvents(t *testing.T, stage string, g *tin.Graph) {
	t.Helper()
	want := sortedEvents(g)
	seen := make([]bool, g.OrdBound())
	for _, ev := range want {
		if ev.Ord < 0 || ev.Ord >= g.OrdBound() || seen[ev.Ord] {
			t.Fatalf("%s: Ord %d repeated or outside [0,%d)\n%s", stage, ev.Ord, g.OrdBound(), g)
		}
		seen[ev.Ord] = true
	}
	if got := g.Events(); !slices.Equal(got, want) {
		t.Fatalf("%s: Events walked\n%v\nsorted\n%v\n%s", stage, got, want, g)
	}
	var scanned []tin.Event
	scan(g, func(ev tin.Event, _ float64, _ []float64) { scanned = append(scanned, ev) })
	if !slices.Equal(scanned, want) {
		t.Fatalf("%s: the greedy scan visited\n%v\nsorted\n%v\n%s", stage, scanned, want, g)
	}
	if len(want) != g.NumInteractions() {
		t.Fatalf("%s: %d events, NumInteractions = %d", stage, len(want), g.NumInteractions())
	}
}

// TestEventsPlacementEqualsSort walks generated graphs through every step
// that hands out, deletes or inherits Ords and compares the event stream
// Events collects and the greedy scan visits, both walks of the graph's
// Ord index, with the sorted one at each.
func TestEventsPlacementEqualsSort(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		cfg := datagen.DefaultDAGConfig()
		if seed%2 == 1 {
			cfg.MaxTime = 2 // almost every timestamp collides
		}
		g := randGraph(seed, cfg)
		checkEvents(t, "raw", g)
		checkEvents(t, "window", g.RestrictWindow(3, 20))

		h := g.Clone()
		if _, err := Preprocess(h); err != nil {
			t.Fatalf("seed %d: Preprocess: %v", seed, err)
		}
		checkEvents(t, "after Preprocess", h)
		Simplify(h) // reduced edges and merged sequences inherit Ords
		checkEvents(t, "after Simplify", h)
		checkEvents(t, "window after Simplify", h.RestrictWindow(0, 1))

		// Before Finalize Ords are insertion indices; a deleted edge leaves
		// holes that Finalize's ranking must squeeze out.
		u := tin.NewGraph(g.NumV, g.Source, g.Sink)
		for _, e := range g.Edges {
			id := u.AddEdge(e.From, e.To)
			for i := len(e.Seq) - 1; i >= 0; i-- { // latest first: every run out of time order
				u.AddInteraction(id, e.Seq[i].Time, e.Seq[i].Qty)
			}
		}
		checkEvents(t, "before Finalize", u)
		u.DeleteEdge(tin.EdgeID(seed % int64(len(u.Edges))))
		checkEvents(t, "before Finalize, edge deleted", u)
		u.Finalize()
		checkEvents(t, "finalized after deletion", u)
		evs := u.Events()
		if int64(len(evs)) != u.OrdBound() {
			t.Fatalf("seed %d: Finalize left OrdBound %d over %d interactions", seed, u.OrdBound(), len(evs))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i-1].Time > evs[i].Time {
				t.Fatalf("seed %d: finalized events out of time order at %d: %v", seed, i, evs)
			}
		}
	}

	// Extracted instances: dense ranks from buildFlowGraph, and the windowed
	// builder's emptied edges dropped by DropEmptyEdges.
	n := datagen.Bitcoin(datagen.Config{Vertices: 150, Seed: 3})
	window := &tin.TimeWindow{From: n.MaxTime() / 4, To: n.MaxTime() / 2}
	extracted := 0
	for v := 0; v < n.NumVertices(); v++ {
		q := tin.Query{Source: tin.VertexID(v), Sink: tin.VertexID(v), ExtractOptions: tin.DefaultExtractOptions()}
		if x := n.Extract(q); x.Ok {
			extracted++
			checkEvents(t, "extracted", x.Graph)
		}
		q.Window = window
		if x := n.Extract(q); x.Ok {
			checkEvents(t, "extracted in a window", x.Graph)
		}
	}
	if extracted == 0 {
		t.Fatal("no seed of the generated network has a subgraph; the extraction half is vacuous")
	}
}
