package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"flownet/internal/core"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// TestDifferentialIncrementalVsRebuild is the randomized equivalence
// harness behind the incremental derived-state machinery: one long-lived
// server ingests a random interleaving of in-order appends, parked
// out-of-order items, reindexes and vertex growth — exercising warm
// pattern-table updates and footprint-based cache retention across every
// generation bump — while a from-scratch server is rebuilt from the same
// acknowledged items at every step. Every pair, seed and PB pattern answer
// must be byte-identical between the two at every step. Run under -race in
// CI, it also hammers the sweep/update concurrency.
func TestDifferentialIncrementalVsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	numV := 10
	// refItems replicates the incremental network's insertion-order
	// history: in-order appends are acknowledged immediately, parked items
	// only at the reindex that merges them (in park order) — the same ord
	// assignment the live path performs, so canonical ranks agree.
	var refItems, parked []tin.BatchItem
	tm := 10.0

	inc := New(Config{CacheSize: 256, AllowIngest: true})
	if err := inc.AddNetwork("diff", buildNet(t, numV, nil)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inc.Handler())
	t.Cleanup(ts.Close)

	randItem := func(maxV int) tin.BatchItem {
		return tin.BatchItem{
			From: tin.VertexID(rng.Intn(maxV)), To: tin.VertexID(rng.Intn(maxV)),
			Time: tm, Qty: float64(rng.Intn(9)) + 0.5,
		}
	}
	ingest := func(req IngestRequest) IngestResult {
		t.Helper()
		var res IngestResult
		status, body := post(t, ts, "/ingest", req, &res)
		if status != 200 {
			t.Fatalf("ingest %+v: status %d (%s)", req, status, body)
		}
		return res
	}

	const steps = 35
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // in-order batch
			batch := make([]IngestInteraction, 1+rng.Intn(4))
			for i := range batch {
				tm += rng.Float64()
				it := randItem(numV)
				batch[i] = IngestInteraction{From: int(it.From), To: int(it.To), Time: it.Time, Qty: it.Qty}
				if it.From != it.To {
					refItems = append(refItems, it)
				}
			}
			ingest(IngestRequest{Network: "diff", Interactions: batch})
		case op < 7: // park an out-of-order item
			it := randItem(numV)
			it.Time = tm - 1 - rng.Float64()*5
			ingest(IngestRequest{Network: "diff", AllowOutOfOrder: true, Interactions: []IngestInteraction{
				{From: int(it.From), To: int(it.To), Time: it.Time, Qty: it.Qty},
			}})
			if it.From != it.To {
				parked = append(parked, it)
			}
		case op < 8: // reindex merges the parked backlog
			ingest(IngestRequest{Network: "diff", Reindex: true})
			refItems = append(refItems, parked...)
			parked = nil
		default: // grow: an edge into a brand-new vertex
			tm += rng.Float64()
			// Grow extends the vertex space exactly to fit the out-of-range
			// id, so the reference grows to To+1 too.
			it := tin.BatchItem{From: tin.VertexID(rng.Intn(numV)), To: tin.VertexID(numV + rng.Intn(2)), Time: tm, Qty: 1}
			numV = int(it.To) + 1
			ingest(IngestRequest{Network: "diff", Grow: true, Interactions: []IngestInteraction{
				{From: int(it.From), To: int(it.To), Time: it.Time, Qty: it.Qty},
			}})
			refItems = append(refItems, it)
		}

		// From-scratch reference over the acknowledged items (parked ones
		// are invisible until their reindex, exactly like the live path).
		ref := New(Config{CacheSize: 0})
		if err := ref.AddNetwork("diff", buildNet(t, numV, refItems)); err != nil {
			t.Fatalf("step %d: reference build: %v", step, err)
		}
		rts := httptest.NewServer(ref.Handler())

		// Windowed variants ride along: the incremental server answers them
		// through the in-extraction window path against the same network
		// history, so any divergence between that path and the rebuilt
		// reference — including the cache-key treatment of the bounds —
		// shows up here too.
		wFrom := tm * rng.Float64() * 0.8
		wTo := wFrom + tm*rng.Float64()*0.5
		queries := []string{
			fmt.Sprintf("/flow?net=diff&source=%d&sink=%d", rng.Intn(numV), rng.Intn(numV-1)),
			fmt.Sprintf("/flow?net=diff&seed=%d", rng.Intn(numV)),
			fmt.Sprintf("/flow?net=diff&source=%d&sink=%d&from=%g&to=%g", rng.Intn(numV), rng.Intn(numV-1), wFrom, wTo),
			fmt.Sprintf("/flow?net=diff&seed=%d&from=%g&to=%g", rng.Intn(numV), wFrom, wTo),
		}
		if step%5 == 4 {
			queries = append(queries,
				"/patterns?net=diff&pattern=P2&mode=pb",
				"/patterns?net=diff&pattern=P4&mode=pb")
		}
		for _, q := range queries {
			gotStatus, _, got := get(t, ts, q, nil)
			wantStatus, _, want := get(t, rts, q, nil)
			if gotStatus != wantStatus || string(got) != string(want) {
				t.Fatalf("step %d: %s diverged:\nincremental (%d): %s\nrebuild     (%d): %s",
					step, q, gotStatus, got, wantStatus, want)
			}
			// Replay through the cache (hit or fresh miss) must agree too.
			if _, _, again := get(t, ts, q, nil); string(again) != string(want) {
				t.Fatalf("step %d: %s cached replay diverged:\n%s\nvs\n%s", step, q, again, want)
			}
		}
		rts.Close()
	}
}

// TestWindowedServingMatchesRestrictOracle pins the serving fast path for
// time windows: /flow answers are produced by applying the window during
// extraction (never materializing out-of-window interactions), and must be
// field-identical to the pre-optimization pipeline — extract the full
// subgraph, Graph.RestrictWindow, solve — for every seed, every pair, and
// a spread of windows (full, interior, point, inverted, disjoint).
//
// oracleSolve fills res for g the way the server did before core.Solve
// existed — its own acyclicity test, then the time-expanded engine or
// PreSim over the LP — so the comparison also checks Solve's dispatch
// independently; sameAnswer allows the two engines their last digits.
func oracleSolve(t *testing.T, g *tin.Graph, res *FlowResult) {
	t.Helper()
	res.Ok = true
	res.Vertices, res.Edges, res.Interactions = g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions()
	if !g.IsDAG() {
		res.Flow, res.Method, res.UsedEngine = teg.MaxFlow(g), "teg", true
		return
	}
	r, err := core.PreSim(g, core.EngineLP)
	if err != nil {
		t.Fatal(err)
	}
	res.Flow, res.Class, res.Method, res.UsedEngine = r.Flow, r.Class.String(), "presim", r.UsedEngine
}

// sameAnswer reports whether a served answer is the oracle's: the flow
// within relTol, every other field exactly.
func sameAnswer(got, want FlowResult) bool {
	ok := closeEnough(got.Flow, want.Flow)
	want.Flow = got.Flow
	return ok && got == want
}

func TestWindowedServingMatchesRestrictOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const numV = 9
	var items []tin.BatchItem
	for i := 0; i < 140; i++ {
		from := tin.VertexID(rng.Intn(numV))
		to := tin.VertexID(rng.Intn(numV))
		if from == to {
			continue
		}
		items = append(items, tin.BatchItem{From: from, To: to, Time: float64(rng.Intn(50)), Qty: float64(rng.Intn(5)) + 1})
	}
	n := buildNet(t, numV, items)
	s := New(Config{CacheSize: 0})
	if err := s.AddNetwork("w", n); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts, err := extractParams(0, 0) // the handler's defaults
	if err != nil {
		t.Fatal(err)
	}
	windows := [][2]float64{{0, 50}, {10, 30}, {25, 25}, {40, 10}, {60, 90}}
	for _, w := range windows {
		for seed := 0; seed < numV; seed++ {
			want := FlowResult{Network: "w", Query: "seed", Seed: seed}
			if g, ok := n.ExtractSubgraph(tin.VertexID(seed), opts); ok {
				oracleSolve(t, g.RestrictWindow(w[0], w[1]), &want)
			}
			var got FlowResult
			q := fmt.Sprintf("/flow?net=w&seed=%d&from=%g&to=%g", seed, w[0], w[1])
			if status, _, body := get(t, ts, q, &got); status != 200 {
				t.Fatalf("%s: status %d (%s)", q, status, body)
			}
			if !sameAnswer(got, want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", q, got, want)
			}
		}
		for src := 0; src < numV; src++ {
			for snk := 0; snk < numV; snk++ {
				if src == snk {
					continue
				}
				want := FlowResult{Network: "w", Query: "pair", Source: src, Sink: snk}
				if g, ok := n.FlowSubgraphBetween(tin.VertexID(src), tin.VertexID(snk)); ok {
					oracleSolve(t, g.RestrictWindow(w[0], w[1]), &want)
				}
				var got FlowResult
				q := fmt.Sprintf("/flow?net=w&source=%d&sink=%d&from=%g&to=%g", src, snk, w[0], w[1])
				if status, _, body := get(t, ts, q, &got); status != 200 {
					t.Fatalf("%s: status %d (%s)", q, status, body)
				}
				if !sameAnswer(got, want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", q, got, want)
				}
			}
		}
	}
}
