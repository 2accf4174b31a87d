package teg

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"flownet/internal/datagen"
	"flownet/internal/tin"
)

func figure3() *tin.Graph {
	g := tin.NewGraph(4, 0, 3)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 5})
	g.AddSeq(g.AddEdge(0, 2), [2]float64{2, 3})
	g.AddSeq(g.AddEdge(1, 2), [2]float64{3, 5})
	g.AddSeq(g.AddEdge(1, 3), [2]float64{4, 4})
	g.AddSeq(g.AddEdge(2, 3), [2]float64{5, 1})
	g.Finalize()
	return g
}

func TestFigure3MaxFlow(t *testing.T) {
	if f := MaxFlow(figure3()); f != 5 {
		t.Errorf("MaxFlow=%g, want 5", f)
	}
}

func TestBuildStructure(t *testing.T) {
	g := figure3()
	net, _ := build(g, g.Events(), nil)
	// y and z have 3 incident events each, so 4 buffer states each; the
	// source sends 2 interactions and the sink receives 2.
	if net.n != 8 {
		t.Errorf("buffer states = %d, want 8", net.n)
	}
	if len(net.to) != 4*8+2+2 || net.srcEnd != 4*8+2 {
		t.Errorf("slots = %d, source's end at %d; want 36 and 34", len(net.to), net.srcEnd)
	}
	// Every present slot is paired with one that leads back to its owner.
	owner := func(a int32) int32 {
		switch {
		case a < 4*net.n:
			return a / 4
		case a < net.srcEnd:
			return net.n
		}
		return net.n + 1
	}
	present := 0
	for a, u := range net.to {
		if u < 0 {
			if net.res[a] != 0 {
				t.Errorf("absent slot %d has residual %g", a, net.res[a])
			}
			continue
		}
		present++
		if r := net.pair[a]; net.pair[r] != int32(a) || net.to[r] != owner(int32(a)) || u != owner(r) {
			t.Errorf("slot %d -> %d and its pair %d -> %d do not reverse each other", a, u, r, net.to[r])
		}
	}
	// 5 interactions + 3 holdovers per intermediate vertex * 2, both ways.
	if present != 2*11 {
		t.Errorf("present slots = %d, want 22", present)
	}
	// y's first state (0): no holdover back, +Inf forward, nothing arrived,
	// nothing leaves. Its second (1): back to 0, forward to 2, the reverse
	// of (1,5) from the source (node 8), and (3,5) into z's third state (6).
	want := []int32{-1, 1, -1, -1, 0, 2, 8, 6}
	for a, u := range want {
		if net.to[a] != u {
			t.Errorf("slot %d leads to %d, want %d", a, net.to[a], u)
		}
	}
	if !math.IsInf(net.res[1], 1) || net.res[6] != 0 {
		t.Errorf("holdover forward residual %g, arrival reverse %g; want +Inf and 0", net.res[1], net.res[6])
	}
}

func TestTransfersRespectOrder(t *testing.T) {
	// y receives 5 at t=1 and must split it between (3,5) and (4,4) to
	// maximize; the transfer on (3,5) must be 1 and on (4,4) must be 4.
	g := figure3()
	total, byOrd := Transfers(g)
	if total != 5 {
		t.Fatalf("total=%g, want 5", total)
	}
	evs := g.Events()
	// events: (1,5) s->y, (2,3) s->z, (3,5) y->z, (4,4) y->t, (5,1) z->t
	want := []float64{5, 3, 1, 4, 1}
	for i, ev := range evs {
		// s->z's transfer is 3 in capacity but only 1 is useful; max-flow
		// solutions may or may not route the useless 2, so only check the
		// constrained entries.
		if i == 1 {
			if byOrd[ev.Ord] > want[i]+1e-9 {
				t.Errorf("event %d transfer %g > cap %g", i, byOrd[ev.Ord], want[i])
			}
			continue
		}
		if math.Abs(byOrd[ev.Ord]-want[i]) > 1e-9 {
			t.Errorf("event %d transfer %g, want %g", i, byOrd[ev.Ord], want[i])
		}
	}
}

func TestStrictOrderSemantics(t *testing.T) {
	// A deposit and a withdrawal at the same timestamp: the withdrawal
	// inserted earlier in input order cannot use the later deposit, the one
	// inserted later can.
	g := tin.NewGraph(3, 0, 2)
	e01 := g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	g.AddInteraction(e12, 5, 4) // inserted first: precedes the deposit
	g.AddInteraction(e01, 5, 4) // deposit at the same timestamp
	g.Finalize()
	if f := MaxFlow(g); f != 0 {
		t.Errorf("MaxFlow=%g, want 0 (withdrawal precedes deposit)", f)
	}

	h := tin.NewGraph(3, 0, 2)
	f01 := h.AddEdge(0, 1)
	f12 := h.AddEdge(1, 2)
	h.AddInteraction(f01, 5, 4) // deposit inserted first
	h.AddInteraction(f12, 5, 4)
	h.Finalize()
	if f := MaxFlow(h); f != 4 {
		t.Errorf("MaxFlow=%g, want 4 (deposit precedes withdrawal)", f)
	}
}

func TestInfiniteSyntheticChannel(t *testing.T) {
	// source -> v -> sink where both edges carry infinite quantity: the
	// temporal max flow is infinite.
	g := tin.NewGraph(3, 0, 2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(1, 2)
	g.AddInteraction(a, math.Inf(-1), math.Inf(1))
	g.AddInteraction(b, math.Inf(1), math.Inf(1))
	g.Finalize()
	if f := MaxFlow(g); !math.IsInf(f, 1) {
		t.Errorf("MaxFlow=%g, want +inf", f)
	}
}

func TestDirectSourceSinkEdge(t *testing.T) {
	g := tin.NewGraph(2, 0, 1)
	g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 3}, [2]float64{2, 4})
	g.Finalize()
	if f := MaxFlow(g); f != 7 {
		t.Errorf("MaxFlow=%g, want 7", f)
	}
}

func TestSourceOrSinkMisusePanics(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to tin.VertexID
	}{
		{"into the source", 1, 0},
		{"out of the sink", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := tin.NewGraph(3, 0, 2)
			g.AddSeq(g.AddEdge(0, 1), [2]float64{1, 3})
			g.AddSeq(g.AddEdge(1, 2), [2]float64{2, 3})
			g.AddSeq(g.AddEdge(c.from, c.to), [2]float64{3, 3})
			g.Finalize()
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "teg: ") {
					t.Fatalf("recovered %v, want a teg: panic", r)
				}
			}()
			MaxFlow(g)
		})
	}
}

// graph builds an instance on numV vertices, source 0 and sink numV-1,
// from interactions {from, to, time, qty} in insertion order, which breaks
// ties of equal time.
func graph(numV int, ias ...[4]float64) *tin.Graph {
	g := tin.NewGraph(numV, 0, tin.VertexID(numV-1))
	edges := map[[2]tin.VertexID]tin.EdgeID{}
	for _, ia := range ias {
		p := [2]tin.VertexID{tin.VertexID(ia[0]), tin.VertexID(ia[1])}
		e, ok := edges[p]
		if !ok {
			e = g.AddEdge(p[0], p[1])
			edges[p] = e
		}
		g.AddInteraction(e, ia[2], ia[3])
	}
	g.Finalize()
	return g
}

// replay moves every transfer in canonical order through the vertices'
// buffers and fails unless each is within its interaction's quantity and its
// sender's buffer, and the sink receives the total.
func replay(t *testing.T, g *tin.Graph, total float64, byOrd []float64) {
	t.Helper()
	buf := make([]float64, g.NumV)
	buf[g.Source] = math.Inf(1)
	sum := 0.0
	for _, ev := range g.Events() {
		x := byOrd[ev.Ord]
		if x < 0 || x > ev.Qty || x > buf[ev.From]+1e-9 {
			t.Fatalf("transfer %g on %d->%d%v exceeds its quantity or the buffer %g", x, ev.From, ev.To, ev.Interaction, buf[ev.From])
		}
		if !math.IsInf(buf[ev.From], 1) {
			buf[ev.From] -= x
		}
		buf[ev.To] += x
		if ev.To == g.Sink {
			sum += x
		}
	}
	if sum != total {
		t.Fatalf("replayed sink inflow %g, want the total %g", sum, total)
	}
}

// TestLiveEvents pins the rule: an interaction is laid out only if its tail
// is the source or received one strictly earlier in the canonical order,
// and its head is the sink or sends one strictly later. Dropped
// interactions carry nothing, so Transfers reports 0 on them and the flow is
// what the live ones carry.
func TestLiveEvents(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		numV int
		ias  [][4]float64
		live []int // indices into ias, in canonical order
		flow float64
	}{
		{
			// 1->2 inserted before 0->1 at the same time precedes it and has
			// nothing to send; the one inserted after can send the deposit.
			name: "a departure just before and just after an arrival at one time",
			numV: 3,
			ias:  [][4]float64{{1, 2, 5, 4}, {0, 1, 5, 4}, {1, 2, 5, 3}},
			live: []int{1, 2}, flow: 3,
		},
		{
			name: "an arrival after every departure",
			numV: 3,
			ias:  [][4]float64{{0, 1, 1, 5}, {1, 2, 2, 4}, {0, 1, 3, 7}},
			live: []int{0, 1}, flow: 4,
		},
		{
			// 2 sends back to 1 before it receives anything from 1, so the
			// cycle carries nothing in either direction.
			name: "a cycle whose only way back is earlier in time",
			numV: 4,
			ias:  [][4]float64{{0, 1, 1, 5}, {2, 1, 2, 5}, {1, 2, 3, 5}, {1, 3, 4, 2}},
			live: []int{0, 3}, flow: 2,
		},
		{
			name: "a cycle whose way back is later in time",
			numV: 4,
			ias:  [][4]float64{{0, 1, 1, 5}, {1, 2, 2, 5}, {2, 1, 3, 5}, {1, 3, 4, 9}},
			live: []int{0, 1, 2, 3}, flow: 5,
		},
		{
			name: "a +Inf channel among dropped interactions",
			numV: 3,
			ias:  [][4]float64{{1, 2, 0, 3}, {0, 1, 1, inf}, {1, 2, 2, inf}, {0, 1, 3, 1}},
			live: []int{1, 2}, flow: inf,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := graph(c.numV, c.ias...)
			got := live(g, g.Events(), make([]int32, g.NumV))
			if len(got) != len(c.live) {
				t.Fatalf("%d live interactions %v, want %d", len(got), got, len(c.live))
			}
			for i, ev := range got {
				want := c.ias[c.live[i]]
				if float64(ev.From) != want[0] || float64(ev.To) != want[1] || ev.Time != want[2] || ev.Qty != want[3] {
					t.Errorf("live interaction %d is %d->%d%v, want %v", i, ev.From, ev.To, ev.Interaction, want)
				}
			}
			if f := MaxFlow(g); f != c.flow {
				t.Errorf("MaxFlow=%g, want %g", f, c.flow)
			}
			total, byOrd := Transfers(g)
			if total != c.flow {
				t.Errorf("Transfers total=%g, want %g", total, c.flow)
			}
			kept := map[int64]bool{}
			for _, ev := range got {
				kept[ev.Ord] = true
			}
			for _, ev := range g.Events() {
				if !kept[ev.Ord] && byOrd[ev.Ord] != 0 {
					t.Errorf("dropped %d->%d%v transfers %g", ev.From, ev.To, ev.Interaction, byOrd[ev.Ord])
				}
			}
			if !math.IsInf(total, 1) {
				replay(t, g, total, byOrd)
			}
		})
	}
}

// TestBitcoinPairLaysOutLiveEventsOnly guards the prune on the instance
// that motivated it: a pair query on a Bitcoin-shaped network of 3 000
// vertices, which extracts nearly all of its 276 K interactions as one
// cyclic component (benchmark/README.md keeps such pairs out of pair_heavy:
// solving them whole took 0.2 to 9 s). The engine must lay out at most a
// tenth of the instance; 12 141 of 271 255 interactions are live. The solve
// time is logged, not bounded.
func TestBitcoinPairLaysOutLiveEventsOnly(t *testing.T) {
	n := datagen.Bitcoin(datagen.Config{Vertices: 3000, Seed: 1})
	x := n.Extract(tin.Query{Source: 1, Sink: 2})
	if !x.Ok {
		t.Fatal("pair 1->2 extracts nothing")
	}
	g := x.Graph
	events := g.Events()
	all := len(events)
	kept := len(live(g, events, make([]int32, g.NumV)))
	if kept > all/10 {
		t.Errorf("%d of %d interactions are laid out, want at most a tenth", kept, all)
	}
	start := time.Now()
	flow := MaxFlow(g)
	t.Logf("pair 1->2: %d of %d interactions live (%.1f%%), flow %g in %v",
		kept, all, 100*float64(kept)/float64(all), flow, time.Since(start))
}
