package core

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/tin"
)

// lemma2Instance builds a random Lemma-2 instance by position, as a graph
// whose vertices are the positions and whose edges are the runs, in run
// order: source 0, and every other position leaves by at most one run,
// into the source or into a later position, so the positions are acyclic
// once runs into the source are ignored. shape picks a chain (0), an
// in-tree (1), a bundle of petals — chains from the source into the sink
// sharing no other position — (2) or any such set (3). Any shape may also
// carry runs from the source straight into the sink and a run out of the
// sink into the source. Quantities are hundredths (whose sums round, so a
// reordered sum shows in the bits), some zero, and one may be +Inf;
// timestamps are drawn from few values (ties), and some runs stay empty.
func lemma2Instance(rng *rand.Rand, shape, npos, ias int) *tin.Graph {
	sink := npos - 1
	var runs [][2]int
	switch shape {
	case 0:
		for p := 0; p < sink; p++ {
			runs = append(runs, [2]int{p, p + 1})
		}
	case 1:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			runs = append(runs, [2]int{0, 1 + rng.Intn(sink)})
		}
		for p := 1; p < sink; p++ {
			runs = append(runs, [2]int{p, p + 1 + rng.Intn(sink-p)})
		}
	case 2:
		start := make([]bool, sink+1)
		for p := 1; p <= sink; p++ {
			start[p] = p == 1 || p == sink || rng.Intn(2) == 0
		}
		for p := 1; p < sink; p++ {
			if start[p] {
				runs = append(runs, [2]int{0, p})
			}
			next := p + 1
			if start[next] {
				next = sink
			}
			runs = append(runs, [2]int{p, next})
		}
		runs = append(runs, [2]int{0, sink})
	default:
		sink = 1 + rng.Intn(npos-1)
		for p := 1; p < npos; p++ {
			switch k := rng.Intn(8); {
			case k == 0 && p != sink:
				// no out-run
			case k == 1 || p == npos-1:
				if p != sink || rng.Intn(2) == 0 {
					runs = append(runs, [2]int{p, 0})
				}
			default:
				runs = append(runs, [2]int{p, p + 1 + rng.Intn(npos-1-p)})
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if t := 1 + rng.Intn(npos-1); t != sink || rng.Intn(2) == 0 {
				runs = append(runs, [2]int{0, t})
			}
		}
	}
	if shape != 3 && rng.Intn(2) == 0 {
		runs = append(runs, [2]int{0, sink})
	}
	if (shape != 3 && rng.Intn(3) == 0) || len(runs) == 0 {
		runs = append(runs, [2]int{sink, 0})
	}
	g := tin.NewGraph(npos, 0, tin.VertexID(sink))
	for _, r := range runs {
		g.AddEdge(tin.VertexID(r[0]), tin.VertexID(r[1]))
	}
	inf := rng.Intn(2) == 0
	for i := 0; i < ias; i++ {
		e := tin.EdgeID(rng.Intn(len(runs)))
		if e%3 == 2 && rng.Intn(2) == 0 {
			continue // leaves some runs empty, or nearly
		}
		q := float64(1+rng.Intn(999)) / 100
		switch {
		case rng.Intn(8) == 0:
			q = 0
		case inf && rng.Intn(ias) == 0:
			q, inf = math.Inf(1), false
		}
		g.AddInteraction(e, float64(rng.Intn(ias/3+2)), q)
	}
	g.Finalize()
	return g
}

// checkScanRuns requires ScanRuns on g's runs by position — g's edges, in
// edge order — to give GreedyArrivals' flow and arrivals on g bit for bit,
// with arrivals asked for and without; on a chain PathArrivals must agree
// too.
func checkScanRuns(t *testing.T, g *tin.Graph, chain bool) {
	t.Helper()
	seqs := make([][]tin.Interaction, len(g.Edges))
	from, to := make([]int, len(g.Edges)), make([]int, len(g.Edges))
	for i, e := range g.Edges {
		seqs[i], from[i], to[i] = e.Seq, int(e.From), int(e.To)
	}
	wantFlow, want := GreedyArrivals(g)
	same := func(name string, flow float64, got []Arrival) {
		t.Helper()
		if math.Float64bits(flow) != math.Float64bits(wantFlow) || len(got) != len(want) {
			t.Fatalf("%s on runs %v→%v (sink %d): flow %v, %d arrivals; GreedyArrivals %v, %d arrivals\nseqs %v",
				name, from, to, g.Sink, flow, len(got), wantFlow, len(want), seqs)
		}
		for i := range want {
			if got[i].Time != want[i].Time || got[i].Ord != want[i].Ord || math.Float64bits(got[i].Qty) != math.Float64bits(want[i].Qty) {
				t.Fatalf("%s arrival %d: %v, GreedyArrivals %v", name, i, got[i], want[i])
			}
		}
	}
	var got []Arrival
	same("ScanRuns", ScanRuns(seqs, from, to, 0, int(g.Sink), &got), got)
	same("ScanRuns without arrivals", ScanRuns(seqs, from, to, 0, int(g.Sink), nil), want)
	if chain {
		got = got[:0]
		same("PathArrivals", PathArrivals(seqs, &got), got)
	}
}

// TestScanRunsMatchesGraphScan runs checkScanRuns over every shape, short
// and long instances alike (more than eight positions or runs take their
// scratch from the heap).
func TestScanRunsMatchesGraphScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flows := 0
	for i := 0; i < 2000; i++ {
		shape := i % 4
		g := lemma2Instance(rng, shape, 3+rng.Intn(10), 1+rng.Intn(60))
		checkScanRuns(t, g, shape == 0 && len(g.Edges) == g.NumV-1)
		if Greedy(g) > 0 {
			flows++
		}
	}
	if flows < 1000 {
		t.Errorf("only %d of 2000 instances carry flow; the check is too weak", flows)
	}
}

// FuzzScanRuns checks checkScanRuns on a random Lemma-2 instance of the
// shape the input picks.
func FuzzScanRuns(f *testing.F) {
	for shape := range 4 {
		f.Add(int64(shape), uint8(shape), uint8(4), uint8(30))
		f.Add(int64(10+shape), uint8(shape), uint8(9), uint8(120))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, npos, ias uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := lemma2Instance(rng, int(shape)%4, 3+int(npos)%10, 1+int(ias)%100)
		checkScanRuns(t, g, int(shape)%4 == 0 && len(g.Edges) == g.NumV-1)
	})
}
