// Package pattern implements flow pattern search in temporal interaction
// networks (Section 5 of Kosyfaki et al., ICDE 2021): enumerating the
// instances of a small DAG pattern in a large network and computing the
// maximum flow of every instance.
//
// Two strategies are provided, mirroring the paper's evaluation:
//
//   - GB (graph browsing, §5.1): instances are found in the network
//     adjacency — rigid patterns by the generic backtracking matcher
//     EnumerateGB, with each instance's flow computed by the algorithms of
//     internal/core; the relaxed patterns of §5.3 by the anchored-path
//     walker. A rigid pattern is decomposable when Lemma 2 holds on its
//     split form (every vertex but Source and Sink has one outgoing edge;
//     derived from the edges, not declared): its instances' flows are the
//     positional greedy scan over their edges' runs (core.ScanRuns, staged
//     by position, each pattern vertex brought up only as far as the next
//     one passes transfers on), with no flow graph built and nothing
//     allocated, and a bundle of petals (P5) scans each instance's petal
//     summaries, each computed once per anchor (Lemma 3).
//     Other patterns' instances get a flow graph and PreSim.
//   - PB (preprocessing-based, §5.2): instances are assembled by scanning
//     and joining precomputed path tables (2-hop cycles L2, 3-hop cycles
//     L3, 2-hop chains C2) that also carry the greedy arrival sequences of
//     their paths; when a pattern decomposes into independent anchored
//     paths the precomputed flows are reused outright, otherwise the tables
//     only accelerate instance discovery and the flow is computed on the
//     assembled instance.
//
// Each primitive of Section 5 has one body here: the walker over the
// anchored 2-/3-hop paths of a vertex (anchoredPaths — table rows are its
// output, a full build is an Update of every anchor, and the relaxed GB
// searchers browse through it), the Lemma-3 scan along one path
// (core.PathArrivals, the chain case of core.ScanRuns), the §5.3 rule
// grouping parallel paths into relaxed instances (grouper — fed by the
// walker under GB and by a table's row group under PB, which is all that
// tells the two apart), and the fold of instances into a Summary (fold —
// the cut-off, the Truncated flag and cancellation for every searcher and
// every worker count). The walker and EnumerateGB close a cycle at the
// anchor through one closing index, the anchor's in-edges by tail; the
// independent check of both is Definition 2 written out in the tests
// (bruteInstances), and FuzzInstanceFlow checks the flows against the
// flow graph and PreSim.
//
// The delta maintenance of footnote 2 is Tables.Update: it brings
// precomputed tables current after an append by recomputing only the row
// groups whose anchor a change at a touched vertex can affect, so a live
// network (internal/store) keeps its PB tables warm at a cost proportional
// to the ingest, not the network.
package pattern

import "fmt"

// Kind distinguishes rigid DAG patterns from the relaxed multi-path
// patterns of Section 5.3.
type Kind int

const (
	// KindRigid is a fixed DAG pattern (Definition 2).
	KindRigid Kind = iota
	// KindRelaxedChains aggregates all 2-hop chains a→x→c per (a, c) pair
	// (RP1).
	KindRelaxedChains
	// KindRelaxed2Cycles aggregates all 2-hop cycles a→x→a per anchor (RP2).
	KindRelaxed2Cycles
	// KindRelaxed3Cycles aggregates vertex-disjoint 3-hop cycles a→x→y→a
	// per anchor (RP3).
	KindRelaxed3Cycles
)

// Pattern is a network pattern. For rigid patterns, vertices are the
// distinct labels 0..NV-1 and Edges connect them; Source and Sink designate
// the flow endpoints. A cyclic pattern (one whose drawn first and last
// label coincide, like a→b→a) sets Source == Sink: instances map them to
// one graph vertex, which flow computation splits into a source and a sink
// copy (Section 6.2, Figure 10).
type Pattern struct {
	Name string
	Kind Kind

	// Rigid-pattern fields (ignored for relaxed kinds).
	NV     int
	Edges  [][2]int
	Source int
	Sink   int
	// LessPairs lists pattern vertex pairs (u, v) whose images must satisfy
	// µ(u) < µ(v); used to canonicalize automorphic patterns (e.g. the two
	// interchangeable middle vertices of the P4 diamond) so each instance
	// is reported exactly once.
	LessPairs [][2]int
}

// Cyclic reports whether the pattern's source and sink labels map to the
// same graph vertex.
func (p *Pattern) Cyclic() bool { return p.Kind == KindRigid && p.Source == p.Sink }

// String returns the pattern name.
func (p *Pattern) String() string { return p.Name }

// Validate checks structural sanity of a rigid pattern definition.
func (p *Pattern) Validate() error {
	if p.Kind != KindRigid {
		return nil
	}
	if p.NV < 2 {
		return fmt.Errorf("pattern %s: need at least 2 vertices", p.Name)
	}
	seen := make(map[[2]int]bool)
	for _, e := range p.Edges {
		if e[0] < 0 || e[0] >= p.NV || e[1] < 0 || e[1] >= p.NV {
			return fmt.Errorf("pattern %s: edge %v out of range", p.Name, e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("pattern %s: self loop %v", p.Name, e)
		}
		if seen[e] {
			return fmt.Errorf("pattern %s: duplicate edge %v", p.Name, e)
		}
		seen[e] = true
	}
	if p.Source < 0 || p.Source >= p.NV || p.Sink < 0 || p.Sink >= p.NV {
		return fmt.Errorf("pattern %s: source/sink out of range", p.Name)
	}
	return nil
}

// The catalogue of patterns evaluated in Section 6.3 (Figure 12). The
// paper's figure is partially garbled in the available text; DESIGN.md §5
// documents the concrete choices, which are consistent with the prose: P2
// and P3 are the 2- and 3-hop cycles, P4 and P6 are LP-class variants, P5
// joins two anchored cycles, and the RPs are the relaxed patterns of §5.3.
var (
	// P1: 2-hop chain a→b→c (distinct vertices). PB uses the C2 table,
	// which the paper precomputed for Prosper Loans only.
	P1 = &Pattern{
		Name: "P1", Kind: KindRigid, NV: 3,
		Edges:  [][2]int{{0, 1}, {1, 2}},
		Source: 0, Sink: 2,
	}
	// P2: 2-hop cycle a→b→a.
	P2 = &Pattern{
		Name: "P2", Kind: KindRigid, NV: 2,
		Edges:  [][2]int{{0, 1}, {1, 0}},
		Source: 0, Sink: 0,
	}
	// P3: 3-hop cycle a→b→c→a.
	P3 = &Pattern{
		Name: "P3", Kind: KindRigid, NV: 3,
		Edges:  [][2]int{{0, 1}, {1, 2}, {2, 0}},
		Source: 0, Sink: 0,
	}
	// P4: diamond cycle a→b→{c,d}→a. After splitting a, vertex b has two
	// outgoing edges, so instances are LP-class; c and d are automorphic
	// and canonicalized by µ(c) < µ(d).
	P4 = &Pattern{
		Name: "P4", Kind: KindRigid, NV: 4,
		Edges:  [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 0}, {3, 0}},
		Source: 0, Sink: 0,
		LessPairs: [][2]int{{2, 3}},
	}
	// P5: flower a→b→a plus a→c→d→a sharing the anchor; two independent
	// anchored paths, so PB sums precomputed L2 and L3 flows.
	P5 = &Pattern{
		Name: "P5", Kind: KindRigid, NV: 4,
		Edges:  [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 3}, {3, 0}},
		Source: 0, Sink: 0,
	}
	// P6: 3-hop cycle with feedback chord a→b→c→a plus b→a; b has two
	// outgoing edges after the split, so instances are LP-class.
	P6 = &Pattern{
		Name: "P6", Kind: KindRigid, NV: 3,
		Edges:  [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 0}},
		Source: 0, Sink: 0,
	}
	// RP1: relaxed 2-hop chain star a→{x_i}→c (one instance per (a, c)).
	RP1 = &Pattern{Name: "RP1", Kind: KindRelaxedChains}
	// RP2: relaxed 2-hop cycles a→{x_i}→a (one instance per anchor a).
	RP2 = &Pattern{Name: "RP2", Kind: KindRelaxed2Cycles}
	// RP3: relaxed vertex-disjoint 3-hop cycles a→{x_i}→{y_i}→a.
	RP3 = &Pattern{Name: "RP3", Kind: KindRelaxed3Cycles}
)

// Catalogue lists the patterns of Figure 12 in the paper's order.
var Catalogue = []*Pattern{P1, P2, P3, P4, P5, P6, RP1, RP2, RP3}

// ByName returns the catalogue pattern with the given name, or nil.
func ByName(name string) *Pattern {
	for _, p := range Catalogue {
		if p.Name == name {
			return p
		}
	}
	return nil
}
