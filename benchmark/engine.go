package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"flownet"
)

// This file answers operations in-process, through the root package only.
// It is both the reference of the correctness gate and the subject of the
// traced in-process pass: every call into a layer is bracketed by a span.

// engine answers operations against a network held in memory.
type engine struct {
	n      *flownet.Network
	tables *flownet.Tables // built on first pattern operation
	tr     *tracer         // nil = untraced

	// Per-graph shape of the last flow answers, for the per-layer counts.
	sizes   []int    // interactions of every solved subgraph
	classes []string // "A", "B", "C", or "teg"
	engined int      // answers that needed the exact engine
}

func (e *engine) getTables() flownet.Tables {
	if e.tables == nil {
		t := flownet.Precompute(e.n, true)
		e.tables = &t
	}
	return *e.tables
}

// do computes the answer the server must give for o.
func (e *engine) do(o op) (answer, error) {
	var ans answer
	var err error
	switch o.Kind {
	case opSeed, opSeedWin, opPair, opPairWin:
		ans.Flow, err = e.flow(o)
	case opBatch:
		ans.Batch, err = e.batch(o)
	case opPattern:
		var r flownet.PatternResult
		r, err = e.pattern(o.Pattern, "pb", patternBound)
		ans.Pattern = []flownet.PatternResult{r}
	case opSuite:
		for _, q := range suiteQueries() {
			var r flownet.PatternResult
			if r, err = e.pattern(q.Pattern, q.Mode, suiteMax(o)); err != nil {
				break
			}
			ans.Pattern = append(ans.Pattern, r)
		}
	default:
		err = fmt.Errorf("engine cannot answer %s", o.Kind)
	}
	return ans, err
}

// extractOpts are the §6.2 extraction options the server derives from o.
func extractOpts(o op) flownet.ExtractOptions {
	opts := flownet.DefaultExtractOptions()
	if o.MaxIA != 0 {
		opts.MaxInteractions = o.MaxIA
	}
	return opts
}

// flow mirrors the server's /flow: extract, restrict to the window, then
// PreSim on a DAG or the time-expanded engine on a cyclic pair subgraph.
func (e *engine) flow(o op) (flownet.FlowResult, error) {
	pair := o.Kind == opPair || o.Kind == opPairWin
	res := flownet.FlowResult{Network: netName, Query: "seed", Seed: o.V}
	var g *flownet.Graph
	var ok bool
	sp := e.tr.begin("tin", "tin.extract")
	if pair {
		res.Query, res.Seed, res.Source, res.Sink = "pair", 0, o.V, o.W
		g, ok = e.n.FlowSubgraphBetween(flownet.VertexID(o.V), flownet.VertexID(o.W))
	} else {
		g, ok = e.n.ExtractSubgraph(flownet.VertexID(o.V), extractOpts(o))
	}
	if ok && (o.Kind == opSeedWin || o.Kind == opPairWin) {
		g = g.RestrictWindow(o.From, o.To)
	}
	e.tr.end(sp)
	if !ok {
		return res, nil
	}
	res.Ok = true
	res.Vertices, res.Edges, res.Interactions = g.NumLiveVertices(), g.NumLiveEdges(), g.NumInteractions()
	e.sizes = append(e.sizes, res.Interactions)
	if !g.IsDAG() {
		sp := e.tr.begin("teg", "teg.maxflow")
		res.Flow = flownet.MaxFlowTEG(g)
		e.tr.end(sp)
		res.Method, res.UsedEngine = "teg", true
		e.classes = append(e.classes, "teg")
		e.engined++
		return res, nil
	}
	sp = e.tr.begin("core", "core.presim")
	r, err := flownet.PreSim(g, flownet.EngineLP)
	e.tr.end(sp)
	if err != nil {
		return res, err
	}
	res.Flow, res.Class, res.Method, res.UsedEngine = r.Flow, r.Class.String(), "presim", r.UsedEngine
	e.classes = append(e.classes, res.Class)
	if r.UsedEngine {
		e.engined++
	}
	return res, nil
}

func (e *engine) batch(o op) (flownet.BatchResult, error) {
	seeds := make([]flownet.VertexID, len(o.Seeds))
	for i, s := range o.Seeds {
		seeds[i] = flownet.VertexID(s)
	}
	sp := e.tr.begin("par", "par.batch_seeds")
	rs, err := flownet.BatchFlowSeeds(e.n, seeds, extractOpts(o), flownet.BatchOptions{Workers: runtime.GOMAXPROCS(0)})
	e.tr.end(sp)
	res := flownet.BatchResult{Network: netName, Results: make([]flownet.SeedFlowResult, len(rs))}
	for i, r := range rs {
		res.Results[i] = flownet.SeedFlowResult{Seed: int(r.Seed), Ok: r.Ok}
		if r.Ok {
			res.Results[i].Flow, res.Results[i].Class = r.Flow, r.Class.String()
			res.Solved++
			res.TotalFlow += r.Flow
			e.classes = append(e.classes, r.Class.String())
			if r.UsedEngine {
				e.engined++
			}
		}
	}
	return res, err
}

func (e *engine) pattern(name, mode string, max int64) (flownet.PatternResult, error) {
	p := flownet.PatternCatalogueByName(name)
	opts := flownet.PatternOptions{MaxInstances: max, Workers: runtime.GOMAXPROCS(0)}
	var sum flownet.PatternSummary
	var err error
	if mode == "pb" {
		t := e.getTables()
		sp := e.tr.begin("pattern", "pattern.search_pb")
		sum, err = flownet.SearchPB(e.n, t, p, opts)
		e.tr.end(sp)
	} else {
		sp := e.tr.begin("pattern", "pattern.search_gb")
		sum, err = flownet.SearchGB(e.n, p, opts)
		e.tr.end(sp)
	}
	return flownet.PatternResult{Network: netName, Pattern: sum.Pattern, Mode: mode, Instances: sum.Instances,
		TotalFlow: sum.TotalFlow, AvgFlow: sum.AvgFlow(), Truncated: sum.Truncated}, err
}

// encode marshals the answer the way the server's respond does, inside a
// server.encode span, and returns the body size.
func (e *engine) encode(o op, ans answer) int {
	sp := e.tr.begin("server", "server.encode")
	defer e.tr.end(sp)
	var n int
	marshal := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // wire types of the root package always marshal
		}
		n += len(b) + 1
	}
	switch o.Kind {
	case opBatch:
		marshal(ans.Batch)
	case opPattern, opSuite:
		for _, r := range ans.Pattern {
			marshal(r)
		}
	default:
		marshal(ans.Flow)
	}
	return n
}

// relTol is the relative tolerance on flows: the server and the reference
// run the same code on the same input, so they agree to the last bit
// unless summation order differs; 1e-9 allows only that.
const relTol = 1e-9

func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// sameAnswer compares a served answer with the reference.
func sameAnswer(o op, got, want answer) error {
	switch o.Kind {
	case opBatch:
		g, w := got.Batch, want.Batch
		if g.Solved != w.Solved || len(g.Results) != len(w.Results) || !closeEnough(g.TotalFlow, w.TotalFlow) {
			return fmt.Errorf("batch: solved %d total %v, want solved %d total %v", g.Solved, g.TotalFlow, w.Solved, w.TotalFlow)
		}
		for i := range g.Results {
			a, b := g.Results[i], w.Results[i]
			if a.Seed != b.Seed || a.Ok != b.Ok || a.Class != b.Class || !closeEnough(a.Flow, b.Flow) {
				return fmt.Errorf("batch seed %d: got %+v, want %+v", b.Seed, a, b)
			}
		}
	case opPattern, opSuite:
		if len(got.Pattern) != len(want.Pattern) {
			return fmt.Errorf("patterns: %d answers, want %d", len(got.Pattern), len(want.Pattern))
		}
		for i := range got.Pattern {
			a, b := got.Pattern[i], want.Pattern[i]
			if a.Pattern != b.Pattern || a.Mode != b.Mode || a.Instances != b.Instances || a.Truncated != b.Truncated || !closeEnough(a.TotalFlow, b.TotalFlow) {
				return fmt.Errorf("pattern %s/%s: got %+v, want %+v", b.Pattern, b.Mode, a, b)
			}
		}
	default:
		a, b := got.Flow, want.Flow
		if a.Ok != b.Ok || a.Class != b.Class || a.Method != b.Method || a.UsedEngine != b.UsedEngine ||
			a.Interactions != b.Interactions || !closeEnough(a.Flow, b.Flow) {
			return fmt.Errorf("flow: got %+v, want %+v", a, b)
		}
	}
	return nil
}
