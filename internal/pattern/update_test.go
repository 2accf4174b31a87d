package pattern

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// interactionRecord lets tests rebuild a grown network deterministically.
type interactionRecord struct {
	from, to tin.VertexID
	t, q     float64
}

func buildFrom(v int, recs []interactionRecord) *tin.Network {
	b := tin.NewBuilder(v)
	for _, r := range recs {
		b.AddInteraction(r.from, r.to, r.t, r.q)
	}
	return b.Finalize()
}

// touchedBy returns the vertices the appended records touch — the
// endpoints of the edges they change — ascending and distinct.
func touchedBy(appended []interactionRecord) []tin.VertexID {
	var out []tin.VertexID
	for _, r := range appended {
		out = append(out, r.from, r.to)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// endpoints returns the distinct endpoints, ascending, of edges of n — the
// touched vertices of an append that changed them.
func endpoints(n *tin.Network, edges []tin.EdgeID) []tin.VertexID {
	var out []tin.VertexID
	for _, e := range edges {
		out = append(out, n.Edge(e).From, n.Edge(e).To)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func tablesEqual(t *testing.T, name string, a, b *Table) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d", name, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := &a.Rows[i], &b.Rows[i]
		if len(ra.Verts) != len(rb.Verts) {
			t.Fatalf("%s row %d: vert lengths differ", name, i)
		}
		for j := range ra.Verts {
			if ra.Verts[j] != rb.Verts[j] {
				t.Fatalf("%s row %d: verts %v vs %v", name, i, ra.Verts, rb.Verts)
			}
		}
		if math.Abs(ra.Flow-rb.Flow) > 1e-9 {
			t.Fatalf("%s row %d (%v): flow %g vs %g", name, i, ra.Verts, ra.Flow, rb.Flow)
		}
		if len(ra.Arr) != len(rb.Arr) {
			t.Fatalf("%s row %d: arrival counts differ: %d vs %d", name, i, len(ra.Arr), len(rb.Arr))
		}
		for j := range ra.Arr {
			if ra.Arr[j].Time != rb.Arr[j].Time || math.Abs(ra.Arr[j].Qty-rb.Arr[j].Qty) > 1e-9 {
				t.Fatalf("%s row %d arrival %d: %v vs %v", name, i, j, ra.Arr[j], rb.Arr[j])
			}
		}
	}
}

// TestUpdateMatchesFullRecompute grows random networks interaction by
// interaction batch and checks that the incremental table update equals a
// from-scratch precomputation (modulo stale absolute Ord values, which are
// not compared — only times, quantities and flows matter).
func TestUpdateMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const v = 12
		var recs []interactionRecord
		// Base network: random interactions.
		for i := 0; i < 40; i++ {
			a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
			if a == b {
				continue
			}
			recs = append(recs, interactionRecord{a, b, float64(rng.Intn(100)), float64(1 + rng.Intn(9))})
		}
		base := buildFrom(v, recs)
		tables := Precompute(base, true)

		// Grow in three batches.
		for batch := 0; batch < 3; batch++ {
			var appended []interactionRecord
			for i := 0; i < 10; i++ {
				a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
				if a == b {
					continue
				}
				appended = append(appended, interactionRecord{a, b, float64(rng.Intn(100)), float64(1 + rng.Intn(9))})
			}
			recs = append(recs, appended...)
			grown := buildFrom(v, recs)
			tables = tables.Update(grown, touchedBy(appended))
			fresh := Precompute(grown, true)
			tablesEqual(t, "L2", tables.L2, fresh.L2)
			tablesEqual(t, "L3", tables.L3, fresh.L3)
			tablesEqual(t, "C2", tables.C2, fresh.C2)
		}
	}
}

// TestRowArrivalsAtExactLength: a row keeps its arrival sequence for as
// long as its table lives, so it holds it at its exact length — no slack
// of append doubling — in a built table and in one brought current by
// Update.
func TestRowArrivalsAtExactLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const v = 10
	var recs []interactionRecord
	for len(recs) < 400 {
		if a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v)); a != b {
			recs = append(recs, interactionRecord{a, b, float64(rng.Intn(200)), float64(1 + rng.Intn(9))})
		}
	}
	exact := func(name string, tab *Table) {
		t.Helper()
		long := 0
		for i, r := range tab.Rows {
			if cap(r.Arr) != len(r.Arr) {
				t.Fatalf("%s row %d (%v): %d arrivals held in %d", name, i, r.Verts, len(r.Arr), cap(r.Arr))
			}
			if len(r.Arr) > 2 {
				long++
			}
		}
		if long == 0 {
			t.Fatalf("%s: no row has more than two arrivals; the check is vacuous", name)
		}
	}
	built := Precompute(buildFrom(v, recs[:300]), true)
	updated := built.Update(buildFrom(v, recs), touchedBy(recs[300:]))
	for _, c := range []struct {
		name string
		tabs Tables
	}{{"built", built}, {"updated", updated}} {
		exact(c.name+" L2", c.tabs.L2)
		exact(c.name+" L3", c.tabs.L3)
		exact(c.name+" C2", c.tabs.C2)
	}
}

func TestUpdateNewAnchorAppears(t *testing.T) {
	// Base: no cycles at all. Append the closing edge of a 2-cycle: the
	// updated L2 must gain both anchor groups.
	base := buildFrom(3, []interactionRecord{{0, 1, 1, 5}})
	tables := Precompute(base, false)
	if len(tables.L2.Rows) != 0 {
		t.Fatalf("base should have no cycles")
	}
	appended := []interactionRecord{{1, 0, 2, 4}}
	grown := buildFrom(3, []interactionRecord{{0, 1, 1, 5}, {1, 0, 2, 4}})
	updated := tables.L2.Update(grown, touchedBy(appended))
	if len(updated.Rows) != 2 {
		t.Fatalf("rows=%d, want 2 (anchors 0 and 1)", len(updated.Rows))
	}
	if updated.Rows[0].Anchor() != 0 || updated.Rows[1].Anchor() != 1 {
		t.Errorf("anchor layout wrong: %v", updated.Rows)
	}
	if updated.Rows[0].Flow != 4 {
		t.Errorf("cycle 0→1→0 flow=%g, want 4", updated.Rows[0].Flow)
	}
}

func TestUpdateSearchConsistency(t *testing.T) {
	// After an update, PB search on the updated tables must equal GB on the
	// grown network for the decomposable patterns.
	rng := rand.New(rand.NewSource(77))
	const v = 14
	var recs []interactionRecord
	for i := 0; i < 80; i++ {
		a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
		if a == b {
			continue
		}
		recs = append(recs, interactionRecord{a, b, float64(rng.Intn(100)), float64(1 + rng.Intn(9))})
	}
	base := buildFrom(v, recs)
	tables := Precompute(base, true)

	var appended []interactionRecord
	for i := 0; i < 25; i++ {
		a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
		if a == b {
			continue
		}
		appended = append(appended, interactionRecord{a, b, float64(rng.Intn(100)), float64(1 + rng.Intn(9))})
	}
	recs = append(recs, appended...)
	grown := buildFrom(v, recs)
	tables = tables.Update(grown, touchedBy(appended))

	opts := Options{Engine: core.EngineLP}
	for _, p := range []*Pattern{P1, P2, P3, P5, RP1, RP2, RP3} {
		gb, err := SearchGB(grown, p, opts)
		if err != nil {
			t.Fatalf("%s GB: %v", p.Name, err)
		}
		pb, err := SearchPB(grown, tables, p, opts)
		if err != nil {
			t.Fatalf("%s PB: %v", p.Name, err)
		}
		if gb.Instances != pb.Instances || math.Abs(gb.TotalFlow-pb.TotalFlow) > 1e-6*(1+math.Abs(gb.TotalFlow)) {
			t.Errorf("%s after update: GB=(%d,%g) PB=(%d,%g)",
				p.Name, gb.Instances, gb.TotalFlow, pb.Instances, pb.TotalFlow)
		}
	}
}

func TestMinPathsConstraint(t *testing.T) {
	// Anchor 0 has two 2-cycles, anchor 3 has one.
	b := tin.NewBuilder(5)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 0, 2, 3)
	b.AddInteraction(0, 2, 3, 4)
	b.AddInteraction(2, 0, 4, 4)
	b.AddInteraction(3, 4, 5, 2)
	b.AddInteraction(4, 3, 6, 2)
	n := b.Finalize()
	tb := Precompute(n, true)

	// MinPaths 2: only anchor 0 qualifies for RP2 (anchors 1, 2, 3, 4 have
	// one cycle each).
	opts := Options{MinPaths: 2}
	gb, err := SearchGB(n, RP2, opts)
	if err != nil {
		t.Fatalf("GB: %v", err)
	}
	if gb.Instances != 1 {
		t.Errorf("GB instances=%d, want 1", gb.Instances)
	}
	pb, err := SearchPB(n, tb, RP2, opts)
	if err != nil {
		t.Fatalf("PB: %v", err)
	}
	if pb.Instances != 1 || math.Abs(pb.TotalFlow-gb.TotalFlow) > 1e-9 {
		t.Errorf("PB=(%d,%g) GB=(%d,%g)", pb.Instances, pb.TotalFlow, gb.Instances, gb.TotalFlow)
	}

	// MinPaths 3: nothing qualifies.
	opts.MinPaths = 3
	gb, _ = SearchGB(n, RP2, opts)
	pb, _ = SearchPB(n, tb, RP2, opts)
	if gb.Instances != 0 || pb.Instances != 0 {
		t.Errorf("MinPaths=3 should yield no instances: GB=%d PB=%d", gb.Instances, pb.Instances)
	}
}

func TestMinPathsRelaxedChains(t *testing.T) {
	// Two chains 0→1→3 and 0→2→3 share the (0,3) endpoint pair.
	b := tin.NewBuilder(5)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 3, 2, 3)
	b.AddInteraction(0, 2, 3, 4)
	b.AddInteraction(2, 3, 4, 2)
	b.AddInteraction(0, 4, 5, 1) // single chain 0→4→? none
	n := b.Finalize()
	tb := Precompute(n, true)
	opts := Options{MinPaths: 2}
	gb, err := SearchGB(n, RP1, opts)
	if err != nil {
		t.Fatalf("GB: %v", err)
	}
	pb, err := SearchPB(n, tb, RP1, opts)
	if err != nil {
		t.Fatalf("PB: %v", err)
	}
	if gb.Instances != 1 || pb.Instances != 1 {
		t.Errorf("instances GB=%d PB=%d, want 1 (pair (0,3) with 2 chains)", gb.Instances, pb.Instances)
	}
	if math.Abs(gb.TotalFlow-(3+2)) > 1e-9 {
		t.Errorf("flow=%g, want 5", gb.TotalFlow)
	}
}

// FuzzTablesUpdate fuzzes the identity the table builder rests on — a full
// build is the update in which every anchor is affected, so patching any
// append forward must give exactly the freshly precomputed tables: same
// rows in the same order, same edges, flows and arrival sequences bit for
// bit. The tables are patched once across up to three appended batches,
// from the union of their endpoints plus up to four random extra vertices:
// the superset a server hands Update when the stamps it reads include
// vertices touched after its pin.
func FuzzTablesUpdate(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint8(10))
	f.Add(int64(2), uint8(3), uint8(0), uint8(6))
	f.Add(int64(3), uint8(30), uint8(200), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, numV, base, appended uint8) {
		v := 2 + int(numV)%40
		rng := rand.New(rand.NewSource(seed))
		b := tin.NewBuilder(v)
		for i := 0; i < int(base); i++ {
			b.AddInteraction(tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v)), float64(rng.Intn(50)), float64(rng.Intn(9)))
		}
		n := b.Finalize()
		tables := Precompute(n, true)

		var touched []tin.VertexID
		at := math.Max(n.MaxTime(), 0)
		for left, batches := int(appended), 1+rng.Intn(3); batches > 0; batches-- {
			items := make([]tin.BatchItem, left)
			if batches > 1 {
				items = items[:rng.Intn(left+1)]
			}
			left -= len(items)
			for i := range items {
				at += float64(rng.Intn(2)) // duplicate timestamps included
				items[i] = tin.BatchItem{From: tin.VertexID(rng.Intn(v)), To: tin.VertexID(rng.Intn(v)), Time: at, Qty: float64(rng.Intn(9))}
			}
			next, _, changed, err := n.WithBatch(items)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			n = next
			touched = append(touched, endpoints(n, changed)...)
		}
		for extra := rng.Intn(5); extra > 0; extra-- {
			touched = append(touched, tin.VertexID(rng.Intn(v)))
		}
		slices.Sort(touched)
		updated, fresh := tables.Update(n, slices.Compact(touched)), Precompute(n, true)
		for _, c := range []struct {
			name      string
			got, want *Table
		}{{"L2", updated.L2, fresh.L2}, {"L3", updated.L3, fresh.L3}, {"C2", updated.C2, fresh.C2}} {
			if got, want := freezeTable(c.got), freezeTable(c.want); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after Update differs from Precompute:\n got %v\nwant %v", c.name, got, want)
			}
			for a, rows := range c.got.groups() {
				if len(c.got.RowsFor(a)) != len(rows) {
					t.Errorf("%s: index of anchor %d covers %d rows of %d", c.name, a, len(c.got.RowsFor(a)), len(rows))
				}
			}
		}
	})
}
