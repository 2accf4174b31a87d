package pattern

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"flownet/internal/core"
	"flownet/internal/par"
	"flownet/internal/tin"
)

// Options control a pattern search.
type Options struct {
	// MaxInstances stops the search after this many instances (0 = all).
	// The paper applies such a cut-off to the hardest Bitcoin patterns
	// (P4*, P6* in Table 9).
	MaxInstances int64
	// Engine is the exact solver used for non-decomposable instances.
	Engine core.Engine
	// MinPaths applies to the relaxed patterns only (Section 5.3: "we may
	// be interested in instances of the pattern which include at least 10
	// cycles"): an aggregated instance is reported only if it bundles at
	// least this many parallel paths. 0 or 1 means any.
	MinPaths int
	// Workers bounds the worker pool of a search, the calling goroutine
	// included: SearchGB hands it whole anchors (relaxed and decomposable
	// rigid patterns) or single instances (the LP-class P4, P6 and other
	// non-decomposable patterns), and the SearchPB plans that cannot reuse
	// precomputed flows hand it single instances. A worker claims its next
	// anchor or instance from an atomic counter; there is no channel
	// hand-off, so a second worker pays even at a few microseconds per
	// anchor. 0 selects GOMAXPROCS, 1 (or any negative value) runs fully
	// sequentially. The result is identical for every worker count: flows
	// are aggregated in enumeration order (par.Ordered), so instance
	// counts, total flow and cut-off behavior match the sequential search
	// bit-for-bit.
	Workers int
	// Ctx, when non-nil, cancels the search: once Ctx is done the search
	// stops promptly and returns Ctx.Err(). The Summary accumulated so far
	// is returned alongside but is partial — callers must treat a non-nil
	// error as "no result". Nil disables cancellation entirely.
	Ctx context.Context
}

// cancelEvery is the stride between context polls in the search reduction
// loops: frequent enough that a cancelled search stops within a bounded
// slice of work, cheap enough to vanish next to a flow computation or even
// a table-row scan.
const cancelEvery = 256

// canceller polls a context every cancelEvery calls. The first call always
// polls, so a search under an already-expired deadline fails before any
// work is done.
type canceller struct {
	ctx context.Context
	n   int
}

func (c *canceller) err() error {
	if c.ctx == nil {
		return nil
	}
	if c.n++; c.n%cancelEvery != 1 {
		return nil
	}
	return c.ctx.Err()
}

func (o Options) minPaths() int {
	if o.MinPaths < 1 {
		return 1
	}
	return o.MinPaths
}

// workers resolves the Workers knob (see par.Workers).
func (o Options) workers() int { return par.Workers(o.Workers) }

// Summary aggregates a pattern search, matching the columns of the paper's
// Tables 9–11 (instance count and average flow; the caller times the call).
type Summary struct {
	Pattern   string
	Instances int64
	TotalFlow float64
	Truncated bool
}

// AvgFlow returns TotalFlow / Instances (0 when empty).
func (s Summary) AvgFlow() float64 {
	if s.Instances == 0 {
		return 0
	}
	return s.TotalFlow / float64(s.Instances)
}

// fold accumulates the instances of one search, in enumeration order, into
// its Summary. Every searcher — GB or PB, rigid or relaxed, on one goroutine
// or many — counts through it, so the MaxInstances cut-off, the Truncated
// flag and the cancellation poll are stated once. All methods run on the
// searching goroutine.
type fold struct {
	sum Summary
	max int64
	cc  canceller
	err error
}

func newFold(name string, opts Options) *fold {
	return &fold{sum: Summary{Pattern: name}, max: opts.MaxInstances, cc: canceller{ctx: opts.Ctx}}
}

// live polls for cancellation (see canceller); searchers call it once per
// unit of work and stop when it reports false.
func (f *fold) live() bool {
	if f.err == nil {
		if err := f.cc.err(); err != nil {
			f.err = err
		}
	}
	return f.err == nil
}

// add counts one instance and reports whether the search goes on, that is,
// whether the cut-off has not been reached.
func (f *fold) add(flow float64) bool {
	f.sum.Instances++
	f.sum.TotalFlow += flow
	if f.max > 0 && f.sum.Instances >= f.max {
		f.sum.Truncated = true
		return false
	}
	return true
}

// addAll counts the instances found at one anchor.
func (f *fold) addAll(flows []float64) bool {
	for _, flow := range flows {
		if !f.add(flow) {
			return false
		}
	}
	return true
}

// result returns the Summary with the error that ended the search early,
// if one did; the Summary is partial then.
func (f *fold) result() (Summary, error) { return f.sum, f.err }

// SearchGB finds all instances of the pattern by graph browsing and
// computes each instance's maximum flow with the core algorithms
// (Section 5.1): no precomputed data is used. A decomposable rigid pattern
// is searched anchor by anchor with the positional scan
// (searchDecomposable), any other rigid pattern instance by instance with
// InstanceFlow. The work runs on opts.Workers goroutines; see
// Options.Workers.
func SearchGB(n *tin.Network, p *Pattern, opts Options) (Summary, error) {
	switch p.Kind {
	case KindRigid:
		if p.decomposable() {
			return searchDecomposable(n, p, opts)
		}
		var enumErr error
		sum, err := searchInstances(p, n, opts, func(emit func(*Instance) bool) {
			enumErr = EnumerateGB(n, p, emit)
		})
		if enumErr != nil {
			return sum, enumErr
		}
		return sum, err
	case KindRelaxedChains, KindRelaxed2Cycles, KindRelaxed3Cycles:
		// One anchor at a time (concurrently across anchors when
		// opts.Workers allows), folding instances in ascending anchor order.
		return searchAnchors(p.Name, n, opts, func(c *collector, a tin.VertexID) []float64 {
			return c.relaxed(n, p.Kind, a, opts.minPaths())
		})
	default:
		return Summary{}, fmt.Errorf("pattern %s: unknown kind", p.Name)
	}
}

// shape returns the path shape a relaxed pattern kind bundles.
func (k Kind) shape() (hops int, cyclic bool) {
	switch k {
	case KindRelaxedChains:
		return 2, false
	case KindRelaxed2Cycles:
		return 2, true
	default:
		return 3, true
	}
}

// grouper is the grouping rule of Section 5.3: it forms the relaxed
// instances out of the paths of one anchor, offered in walker order. GB
// offers what the walker finds in the graph, PB the anchor's row group of
// the matching table — the two differ in nothing else.
//
//   - RP1 bundles the chains a→x→c per end vertex c, instances in
//     ascending end order.
//   - RP2 bundles all 2-hop cycles of the anchor into one instance.
//   - RP3 likewise, but admits cycles greedily in walker order, skipping
//     any that reuses an intermediate vertex of an admitted one.
//
// An instance's flow is the sum of its paths' flows in walker order
// (Lemma 2: the paths share only the anchor and the end).
type grouper struct {
	kind  Kind
	used  map[tin.VertexID]bool // RP3: intermediates of the admitted cycles
	paths []groupedPath         // admitted paths, in walker order
	flows []float64             // what instances returned last
}

type groupedPath struct {
	key  tin.VertexID // what tells the anchor's instances apart: RP1's end vertex
	flow float64
}

// admits reports whether a path joins its instance; GB computes a path's
// flow only if it does.
func (g *grouper) admits(verts []tin.VertexID) bool {
	if g.kind != KindRelaxed3Cycles {
		return true
	}
	for _, v := range verts[1:] {
		if g.used[v] {
			return false
		}
	}
	if g.used == nil {
		g.used = make(map[tin.VertexID]bool)
	}
	for _, v := range verts[1:] {
		g.used[v] = true
	}
	return true
}

// add records an admitted path and its flow.
func (g *grouper) add(verts []tin.VertexID, flow float64) {
	key := verts[0]
	if g.kind == KindRelaxedChains {
		key = verts[len(verts)-1]
	}
	g.paths = append(g.paths, groupedPath{key, flow})
}

// instances returns the flows of the anchor's instances that bundle at
// least minPaths paths, and readies the grouper for the next anchor; the
// result is valid until instances is called again.
func (g *grouper) instances(minPaths int) []float64 {
	slices.SortStableFunc(g.paths, func(x, y groupedPath) int { return cmp.Compare(x.key, y.key) })
	g.flows = g.flows[:0]
	for i := 0; i < len(g.paths); {
		j, sum := i, 0.0
		for ; j < len(g.paths) && g.paths[j].key == g.paths[i].key; j++ {
			sum += g.paths[j].flow
		}
		if j-i >= minPaths {
			g.flows = append(g.flows, sum)
		}
		i = j
	}
	g.paths = g.paths[:0]
	clear(g.used)
	return g.flows
}

// SearchPB finds the pattern's instances using the precomputed path tables
// (Section 5.2). For decomposable patterns the stored per-path flows are
// summed directly; for P4 and P6 the tables accelerate instance discovery
// but each instance's flow is computed on the assembled subgraph (on
// opts.Workers goroutines), matching the paper's observation that
// precomputed flows cannot be reused when the paths are not independent in
// the instance.
func SearchPB(n *tin.Network, t Tables, p *Pattern, opts Options) (Summary, error) {
	type table struct {
		name string
		t    *Table
	}
	l2, l3, c2 := table{"L2", t.L2}, table{"L3", t.L3}, table{"C2", t.C2}
	var needs []table
	switch p.Name {
	case "P1", "RP1":
		needs = []table{c2}
	case "P2", "RP2":
		needs = []table{l2}
	case "P3", "P4", "P6", "RP3":
		needs = []table{l3}
	case "P5":
		needs = []table{l2, l3}
	default:
		return Summary{}, fmt.Errorf("pattern %s: no PB plan", p.Name)
	}
	for _, need := range needs {
		if need.t == nil {
			return Summary{}, fmt.Errorf("pattern %s: no %s table precomputed", p.Name, need.name)
		}
	}
	switch p.Name {
	case "P1", "P2", "P3":
		return scanTable(needs[0].t, p, opts)
	case "P4":
		return searchP4PB(n, t, opts)
	case "P5":
		return searchP5PB(t, opts)
	case "P6":
		return searchP6PB(n, t, opts)
	default:
		return groupTable(needs[0].t, p, opts)
	}
}

// scanTable handles the patterns that are exactly one table row per
// instance (P1, P2, P3): a single scan with precomputed flows.
func scanTable(t *Table, p *Pattern, opts Options) (Summary, error) {
	f := newFold(p.Name, opts)
	for i := range t.Rows {
		if !f.live() || !f.add(t.Rows[i].Flow) {
			break
		}
	}
	return f.result()
}

// searchP5PB joins L2 and L3 on the anchor (both tables are grouped by
// ascending anchor) and sums the two precomputed flows of each
// vertex-disjoint pair — the "easy pattern" plan of Figure 8(a).
func searchP5PB(t Tables, opts Options) (Summary, error) {
	f := newFold("P5", opts)
	for a, r2 := range t.L2.groups() {
		r3 := t.L3.RowsFor(a)
		for i := range r2 {
			for j := range r3 {
				if !f.live() {
					return f.result()
				}
				if b := r2[i].Verts[1]; b == r3[j].Verts[1] || b == r3[j].Verts[2] {
					continue // the two cycles must share the anchor only
				}
				if !f.add(r2[i].Flow + r3[j].Flow) {
					return f.result()
				}
			}
		}
	}
	return f.result()
}

// searchP4PB pairs 3-hop cycles sharing both the anchor and the second
// vertex (a→b→c→a and a→b→d→a with c < d) into diamond instances; the
// shared prefix a→b makes the paths dependent, so flows are computed on
// the assembled instance (Figure 8(b)'s "hard pattern" case).
func searchP4PB(n *tin.Network, t Tables, opts Options) (Summary, error) {
	return searchInstances(P4, n, opts, func(emit func(*Instance) bool) {
		inst := &Instance{V: make([]tin.VertexID, 4), EdgeIDs: make([]tin.EdgeID, 5)}
		for a, rows := range t.L3.groups() {
			for x := range rows {
				for y := range rows {
					// Must share b; c < d kills the automorphism (and x == y).
					c, d := rows[x].Verts[2], rows[y].Verts[2]
					if rows[x].Verts[1] != rows[y].Verts[1] || c >= d {
						continue
					}
					copy(inst.V, []tin.VertexID{a, rows[x].Verts[1], c, d})
					copy(inst.EdgeIDs, []tin.EdgeID{
						rows[x].Edges[0], // a->b
						rows[x].Edges[1], // b->c
						rows[y].Edges[1], // b->d
						rows[x].Edges[2], // c->a
						rows[y].Edges[2], // d->a
					})
					if !emit(inst) {
						return
					}
				}
			}
		}
	})
}

// searchP6PB scans L3 and verifies the feedback chord b→a in the graph —
// the Figure 8(b) plan: precomputed paths locate candidates, the input
// graph supplies the missing edge, and the flow is computed per instance.
func searchP6PB(n *tin.Network, t Tables, opts Options) (Summary, error) {
	return searchInstances(P6, n, opts, func(emit func(*Instance) bool) {
		inst := &Instance{V: make([]tin.VertexID, 3), EdgeIDs: make([]tin.EdgeID, 4)}
		for i := range t.L3.Rows {
			r := &t.L3.Rows[i]
			a, b, c := r.Verts[0], r.Verts[1], r.Verts[2]
			chord, ok := n.HasEdge(b, a)
			if !ok {
				continue
			}
			copy(inst.V, []tin.VertexID{a, b, c})
			copy(inst.EdgeIDs, []tin.EdgeID{r.Edges[0], r.Edges[1], r.Edges[2], chord})
			if !emit(inst) {
				return
			}
		}
	})
}

// groupTable handles the relaxed patterns (RP1 on C2, RP2 on L2, RP3 on
// L3): the grouping rule applied to each anchor's row group, with the
// precomputed flows.
func groupTable(t *Table, p *Pattern, opts Options) (Summary, error) {
	f := newFold(p.Name, opts)
	g := grouper{kind: p.Kind}
	for _, rows := range t.groups() {
		if !f.live() {
			break
		}
		for i := range rows {
			if g.admits(rows[i].Verts) {
				g.add(rows[i].Verts, rows[i].Flow)
			}
		}
		if !f.addAll(g.instances(opts.minPaths())) {
			break
		}
	}
	return f.result()
}
