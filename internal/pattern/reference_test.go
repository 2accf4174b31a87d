package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flownet/internal/tin"
)

// bruteInstances lists the instances of a rigid pattern by Definition 2,
// written out: every injective map of the pattern's vertices into the
// network's under which every pattern edge is a network edge and every
// LessPair is ordered, sorted like CollectGB. It shares nothing with the
// searchers — no matcher, walker, closing index, HasEdge or adjacency
// list: the network's edges are read once, by id, into a map.
func bruteInstances(n *tin.Network, p *Pattern) []Instance {
	edge := make(map[[2]tin.VertexID]tin.EdgeID)
	for e := 0; e < n.NumEdges(); e++ {
		ed := n.Edge(tin.EdgeID(e))
		edge[[2]tin.VertexID{ed.From, ed.To}] = tin.EdgeID(e)
	}
	var out []Instance
	mu := make([]tin.VertexID, p.NV)
	var place func(u int)
	place = func(u int) {
		if u == p.NV {
			for _, lp := range p.LessPairs {
				if mu[lp[0]] >= mu[lp[1]] {
					return
				}
			}
			inst := Instance{V: slices.Clone(mu), EdgeIDs: make([]tin.EdgeID, len(p.Edges))}
			for j, pe := range p.Edges {
				id, ok := edge[[2]tin.VertexID{mu[pe[0]], mu[pe[1]]}]
				if !ok {
					return
				}
				inst.EdgeIDs[j] = id
			}
			out = append(out, inst)
			return
		}
		for v := 0; v < n.NumVertices(); v++ {
			if slices.Contains(mu[:u], tin.VertexID(v)) {
				continue
			}
			mu[u] = tin.VertexID(v)
			place(u + 1)
		}
	}
	place(0)
	sortInstances(out)
	return out
}

// bruteRelaxed counts the instances of a relaxed pattern (any MinPaths up
// to 1) from the brute-force instances of its rigid path: RP1 has one per
// pair (a, c) joined by a 2-hop chain, RP2 one per anchor on a 2-hop
// cycle, RP3 one per anchor on a 3-hop cycle (the first cycle the grouper
// meets is always admitted).
func bruteRelaxed(n *tin.Network, p *Pattern) int64 {
	rigid, key := P2, func(in Instance) [2]tin.VertexID { return [2]tin.VertexID{in.V[0]} }
	switch p.Kind {
	case KindRelaxedChains:
		rigid, key = P1, func(in Instance) [2]tin.VertexID { return [2]tin.VertexID{in.V[0], in.V[2]} }
	case KindRelaxed3Cycles:
		rigid = P3
	}
	seen := make(map[[2]tin.VertexID]bool)
	for _, in := range bruteInstances(n, rigid) {
		seen[key(in)] = true
	}
	return int64(len(seen))
}

// referenceNetwork is a random network on 4 to 12 vertices whose density
// the seed draws too, sparse to near complete, with reciprocal edges.
func referenceNetwork(seed int64) *tin.Network {
	rng := rand.New(rand.NewSource(seed))
	v := 4 + rng.Intn(9)
	density := 0.1 + 0.5*rng.Float64()
	nb := tin.NewBuilder(v)
	for a := 0; a < v; a++ {
		for b := 0; b < v; b++ {
			if a != b && rng.Float64() < density {
				for k := 1 + rng.Intn(2); k > 0; k-- {
					nb.AddInteraction(tin.VertexID(a), tin.VertexID(b), float64(rng.Intn(20)), float64(1+rng.Intn(9)))
				}
			}
		}
	}
	return nb.Finalize()
}

// TestInstancesMatchDefinition2 is the independent instance reference of
// the package: on many random networks, CollectGB's instances of every
// rigid pattern the flow checks cover — the catalogue, custom patterns
// with an edge into the source of an acyclic pattern (backflow) and with
// an edge out of the source that the matcher checks rather than walks
// (shortcut) — are bruteInstances', and the instance counts of SearchGB
// and SearchPB, for P1–P6 and RP1–RP3, at 1, 2 and 4 workers, are the
// brute-force counts. The walker and the matcher share the closing index,
// so their cross-checks (P1 ≡ C2, P2 ≡ L2, P3 ≡ L3, GB ≡ PB) cannot catch
// a fault in it; this test can.
func TestInstancesMatchDefinition2(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		n := referenceNetwork(seed)
		tables := Precompute(n, true)
		for _, p := range flowPatterns {
			want := bruteInstances(n, p)
			got, err := CollectGB(n, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d %s: CollectGB %v, Definition 2 %v", seed, p.Name, got, want)
			}
		}
		for _, p := range Catalogue {
			var want int64
			if p.Kind == KindRigid {
				want = int64(len(bruteInstances(n, p)))
			} else {
				want = bruteRelaxed(n, p)
			}
			for _, workers := range []int{1, 2, 4} {
				opts := Options{Workers: workers}
				gb, err := SearchGB(n, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := SearchPB(n, tables, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gb.Instances != want || pb.Instances != want {
					t.Fatalf("seed %d %s workers=%d: GB %d, PB %d instances, Definition 2 %d", seed, p.Name, workers, gb.Instances, pb.Instances, want)
				}
			}
		}
	}
}
