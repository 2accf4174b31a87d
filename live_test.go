package flownet_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	flownet "flownet"
)

// The live-network scenarios below run against every way a live network
// comes into being — flownet.NewLiveNetwork / NewEmptyLiveNetwork (a shard
// of a private in-memory store) and a shard of a durable store, with and
// without a checkpoint before the restart — and must leave all of them in
// the identical (contents, pending, generation) state; the durable ones
// must also come back in that state after a restart. Each is a Shard, so
// one scenario body serves all of them.

// chain is a 0 -> 1 -> 2 chain carrying 5 units at times 1, 2.
var chain = []flownet.StreamItem{{From: 0, To: 1, Time: 1, Qty: 5}, {From: 1, To: 2, Time: 2, Qty: 5}}

var deferLate = flownet.StreamOptions{OnOutOfOrder: flownet.StreamPolicyDefer}

// flow02 computes the maximum 0 -> 2 flow of the live network.
func flow02(t *testing.T, sh *flownet.Shard) float64 {
	t.Helper()
	var f float64
	sh.View(func(n *flownet.Network, _ uint64) {
		g, ok := n.FlowSubgraphBetween(0, 2)
		if !ok {
			return
		}
		res, err := flownet.PreSim(g, flownet.EngineLP)
		if err != nil {
			t.Fatalf("PreSim: %v", err)
		}
		f = res.Flow
	})
	return f
}

func mustAppend(t *testing.T, sh *flownet.Shard, items []flownet.StreamItem, opts flownet.StreamOptions) flownet.StreamResult {
	t.Helper()
	res, err := sh.Append(items, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// liveState is everything a live network promises to keep: what queries
// read, what is parked, and which version it is.
type liveState struct {
	contents string
	pending  int
	gen      uint64
}

func stateOf(sh *flownet.Shard) liveState {
	var b strings.Builder
	sh.View(func(n *flownet.Network, _ uint64) {
		fmt.Fprintf(&b, "vertices=%d maxTime=%v\n", n.NumVertices(), n.MaxTime())
		for e := 0; e < n.NumEdges(); e++ {
			ed := n.Edge(flownet.EdgeID(e))
			fmt.Fprintf(&b, "%d->%d %v\n", ed.From, ed.To, ed.Seq) // Seq includes Ord
		}
	})
	return liveState{contents: b.String(), pending: sh.Pending(), gen: sh.Generation()}
}

type liveScenario struct {
	name     string
	vertices int
	// base, when set, is loaded into the network before it goes live
	// (NewLiveNetwork / Store.Add instead of the empty constructors).
	base []flownet.StreamItem
	run  func(t *testing.T, sh *flownet.Shard)
}

var liveScenarios = []liveScenario{
	{name: "append changes flow", vertices: 3, run: func(t *testing.T, sh *flownet.Shard) {
		if got := sh.Generation(); got != 1 {
			t.Fatalf("initial generation = %d, want 1", got)
		}
		if res := mustAppend(t, sh, chain, flownet.StreamOptions{}); res.Appended != 2 || res.Generation != 2 {
			t.Fatalf("Append: %+v, want Appended=2 Generation=2", res)
		}
		if got := flow02(t, sh); got != 5 {
			t.Fatalf("flow after first batch = %g, want 5", got)
		}
		// A later transfer raises the achievable flow.
		res := mustAppend(t, sh, []flownet.StreamItem{{From: 0, To: 1, Time: 3, Qty: 2}, {From: 1, To: 2, Time: 4, Qty: 2}}, flownet.StreamOptions{})
		if res.Generation != 3 {
			t.Fatalf("generation after second append = %d, want 3", res.Generation)
		}
		if got := flow02(t, sh); got != 7 {
			t.Fatalf("flow after second batch = %g, want 7", got)
		}
	}},
	{name: "reject policy", vertices: 3, base: chain, run: func(t *testing.T, sh *flownet.Shard) {
		before := stateOf(sh)
		_, err := sh.Append([]flownet.StreamItem{{From: 0, To: 2, Time: 1.5, Qty: 1}}, flownet.StreamOptions{})
		if !errors.Is(err, flownet.ErrOutOfOrder) {
			t.Fatalf("late append err = %v, want ErrOutOfOrder", err)
		}
		if after := stateOf(sh); after != before {
			t.Fatalf("failed append changed state: %+v, want %+v", after, before)
		}
	}},
	{name: "defer and reindex", vertices: 3, run: func(t *testing.T, sh *flownet.Shard) {
		mustAppend(t, sh, chain, flownet.StreamOptions{})
		gen := sh.Generation()
		// One in-order item and one late item: the former lands, the latter parks.
		res := mustAppend(t, sh, []flownet.StreamItem{
			{From: 0, To: 1, Time: 1.5, Qty: 3}, // late: before MaxTime 2
			{From: 1, To: 2, Time: 4, Qty: 3},   // in order
		}, deferLate)
		if res.Appended != 1 || res.Deferred != 1 || sh.Pending() != 1 {
			t.Fatalf("defer append: %+v pending %d, want Appended=1 Deferred=1 pending 1", res, sh.Pending())
		}
		// The parked item is invisible: the extra (0->1, t=1.5, q=3) would
		// raise the flow from 5 to 8 once merged.
		if got := flow02(t, sh); got != 5 {
			t.Fatalf("flow before Reindex = %g, want 5", got)
		}
		rres, err := sh.Reindex()
		if err != nil {
			t.Fatal(err)
		}
		if rres.Appended != 1 || sh.Pending() != 0 || rres.Generation != gen+2 {
			t.Fatalf("Reindex: %+v pending %d, want Appended=1 pending 0 generation %d", rres, sh.Pending(), gen+2)
		}
		if got := flow02(t, sh); got != 8 {
			t.Fatalf("flow after Reindex = %g, want 8", got)
		}
		// Reindex with nothing pending is a no-op and does not bump.
		rres, err = sh.Reindex()
		if err != nil || rres.Appended != 0 || rres.Generation != gen+2 {
			t.Fatalf("idle Reindex: %+v err=%v, want no-op at generation %d", rres, err, gen+2)
		}
	}},
	{name: "parked items are validated atomically", vertices: 3, base: chain, run: func(t *testing.T, sh *flownet.Shard) {
		before := stateOf(sh)
		// The in-order item is fine; a parked one is invalid (bad vertex).
		_, err := sh.Append([]flownet.StreamItem{
			{From: 0, To: 1, Time: 1.5, Qty: 1}, // late -> would park
			{From: 0, To: 9, Time: 1.7, Qty: 1}, // late and out of range
			{From: 1, To: 2, Time: 9, Qty: 1},   // in order
		}, deferLate)
		if err == nil {
			t.Fatal("append with an invalid parked item succeeded, want error")
		}
		if after := stateOf(sh); after != before {
			t.Fatal("failed append left partial state behind")
		}
	}},
	{name: "grow bumps alone", vertices: 2, run: func(t *testing.T, sh *flownet.Shard) {
		item := []flownet.StreamItem{{From: 0, To: 5, Time: 1, Qty: 2}}
		if _, err := sh.Append(item, flownet.StreamOptions{}); err == nil {
			t.Fatal("out-of-range append without Grow succeeded, want error")
		}
		if sh.Generation() != 1 {
			t.Fatalf("failed append moved the generation to %d", sh.Generation())
		}
		// Growing is query-observable on its own (batch "all", listings), so
		// it bumps the generation separately from the append: 1 +grow +append.
		res, err := sh.Append(item, flownet.StreamOptions{Grow: true})
		if err != nil || res.Appended != 1 || res.Generation != 3 || sh.NetStats().Vertices != 6 {
			t.Fatalf("grow append: %+v err=%v vertices %d, want Appended=1 Generation=3 and 6 vertices", res, err, sh.NetStats().Vertices)
		}
		// A grown-then-rejected batch still bumps for the grow alone: the
		// vertex space stays extended, so cached answers for the old shape
		// must become unreachable.
		if _, err := sh.Append([]flownet.StreamItem{{From: 0, To: 9, Time: 0.5, Qty: 1}}, flownet.StreamOptions{Grow: true}); !errors.Is(err, flownet.ErrOutOfOrder) {
			t.Fatalf("late grow append err = %v, want ErrOutOfOrder", err)
		}
		if sh.Generation() != 4 || sh.NetStats().Vertices != 10 {
			t.Fatalf("after grown-but-rejected batch: gen %d vertices %d, want 4 and 10", sh.Generation(), sh.NetStats().Vertices)
		}
		// Growth past the shared vertex ceiling is refused before anything
		// mutates: an acknowledged grow beyond it would produce snapshots
		// the binary reader rejects, bricking recovery.
		before := stateOf(sh)
		const tooMany = 1 << 24
		if _, err := sh.Append([]flownet.StreamItem{{From: 0, To: tooMany, Time: 2, Qty: 1}}, flownet.StreamOptions{Grow: true}); err == nil {
			t.Fatal("grow append past the vertex ceiling succeeded, want error")
		}
		if _, err := sh.Grow(tooMany + 1); err == nil {
			t.Fatal("Grow past the vertex ceiling succeeded, want refusal")
		}
		if after := stateOf(sh); after != before {
			t.Fatalf("rejected oversize grow left state behind: %+v", after)
		}
	}},
	{name: "explicit grow", vertices: 3, base: chain[:1], run: func(t *testing.T, sh *flownet.Shard) {
		if res, err := sh.Grow(2); err != nil || res.Generation != 1 {
			t.Fatalf("shrinking Grow = %+v err=%v, want a no-op at generation 1", res, err)
		}
		if res, err := sh.Grow(10); err != nil || res.Generation != 2 || sh.NetStats().Vertices != 10 {
			t.Fatalf("Grow(10) = %+v err=%v vertices %d, want a bump to 2 and 10 vertices", res, err, sh.NetStats().Vertices)
		}
		mustAppend(t, sh, []flownet.StreamItem{{From: 8, To: 9, Time: 3, Qty: 1}}, flownet.StreamOptions{})
	}},
	{name: "pending buffer keeps arrival order", vertices: 3, run: func(t *testing.T, sh *flownet.Shard) {
		mustAppend(t, sh, []flownet.StreamItem{{From: 0, To: 1, Time: 5, Qty: 1}}, flownet.StreamOptions{})
		// Two parked batches with equal timestamps: only their arrival
		// order decides the merged canonical order, so a restart that
		// shuffled or dropped pending items would show after the harness's
		// final Reindex.
		mustAppend(t, sh, []flownet.StreamItem{{From: 1, To: 2, Time: 2, Qty: 3}, {From: 2, To: 0, Time: 1, Qty: 4}}, deferLate)
		mustAppend(t, sh, []flownet.StreamItem{{From: 2, To: 1, Time: 2, Qty: 7}, {From: 1, To: 2, Time: 2, Qty: 9}}, deferLate)
		if sh.Pending() != 4 || sh.Generation() != 2 {
			t.Fatalf("pending %d generation %d, want 4 parked items and no bump for parking", sh.Pending(), sh.Generation())
		}
	}},
}

// liveConstructor is one way to obtain a live network. reopen is nil for
// the in-memory one; the durable ones restart their store and return the
// recovered shard.
type liveConstructor struct {
	name string
	open func(t *testing.T, sc liveScenario) (sh *flownet.Shard, reopen func() *flownet.Shard)
}

func baseNetwork(sc liveScenario) *flownet.Network {
	b := flownet.NewNetwork(sc.vertices)
	for _, it := range sc.base {
		b.AddInteraction(it.From, it.To, it.Time, it.Qty)
	}
	return b.Finalize()
}

func durableConstructor(name string, checkpoint bool) liveConstructor {
	return liveConstructor{name: name, open: func(t *testing.T, sc liveScenario) (*flownet.Shard, func() *flownet.Shard) {
		cfg := flownet.StoreConfig{Dir: t.TempDir(), SnapshotEvery: -1, Mmap: os.Getenv("FLOWNET_TEST_MMAP") != ""}
		st, err := flownet.OpenStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		var sh *flownet.Shard
		if sc.base != nil {
			sh, err = st.Add("live", baseNetwork(sc))
		} else {
			sh, err = st.Create("live", sc.vertices)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sh, func() *flownet.Shard {
			if checkpoint {
				if err := sh.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := flownet.OpenStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st2.Close() })
			sh2, ok := st2.Get("live")
			if !ok {
				t.Fatal("network not recovered")
			}
			return sh2
		}
	}}
}

var liveConstructors = []liveConstructor{
	{name: "NewLiveNetwork", open: func(t *testing.T, sc liveScenario) (*flownet.Shard, func() *flownet.Shard) {
		if sc.base == nil {
			return flownet.NewEmptyLiveNetwork(sc.vertices), nil
		}
		sh, err := flownet.NewLiveNetwork(baseNetwork(sc))
		if err != nil {
			t.Fatal(err)
		}
		return sh, nil
	}},
	durableConstructor("durable store, WAL replay", false),
	durableConstructor("durable store, checkpoint", true),
}

func TestLiveNetworkScenarios(t *testing.T) {
	for _, sc := range liveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var want, wantMerged liveState
			for i, c := range liveConstructors {
				sh, reopen := c.open(t, sc)
				sc.run(t, sh)
				got := stateOf(sh)
				if reopen != nil {
					sh = reopen()
					if back := stateOf(sh); back != got {
						t.Fatalf("%s: state changed across the restart:\n  before %+v\n  after  %+v", c.name, got, back)
					}
				}
				// Merging whatever is parked compares the pending buffers
				// item by item, not just by length — on the recovered
				// shard, where there is one.
				if _, err := sh.Reindex(); err != nil {
					t.Fatalf("%s: final Reindex: %v", c.name, err)
				}
				merged := stateOf(sh)
				if i == 0 {
					want, wantMerged = got, merged
					continue
				}
				if got != want {
					t.Fatalf("%s diverged from %s:\n  got  %+v\n  want %+v", c.name, liveConstructors[0].name, got, want)
				}
				if merged != wantMerged {
					t.Fatalf("%s diverged from %s after the final Reindex:\n  got  %+v\n  want %+v", c.name, liveConstructors[0].name, merged, wantMerged)
				}
			}
		})
	}
}

// TestNewLiveNetworkRequiresFinalized: a nil network cannot go live; a
// finalized one, which is every Network, can.
func TestNewLiveNetworkRequiresFinalized(t *testing.T) {
	if _, err := flownet.NewLiveNetwork(nil); err == nil {
		t.Error("NewLiveNetwork(nil) succeeded")
	}
	if _, err := flownet.NewLiveNetwork(flownet.NewNetwork(2).Finalize()); err != nil {
		t.Errorf("NewLiveNetwork of a finalized network: %v", err)
	}
}

// TestLiveConcurrentAppendAndQuery interleaves appends with flow queries
// under the race detector, on every constructor: readers must always
// observe a consistent, canonical network and a generation that only moves
// forward, and a durable shard must restart into whatever state the race
// produced.
func TestLiveConcurrentAppendAndQuery(t *testing.T) {
	for _, c := range liveConstructors {
		t.Run(c.name, func(t *testing.T) {
			sh, reopen := c.open(t, liveScenario{vertices: 4, base: chain})
			const (
				writers = 2
				readers = 4
				rounds  = 50
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						tm := float64(10 + i*writers + w)
						_, err := sh.Append([]flownet.StreamItem{
							{From: 0, To: 1, Time: tm, Qty: 1},
							{From: 1, To: 2, Time: tm, Qty: 1},
						}, flownet.StreamOptions{})
						// Concurrent writers race on MaxTime, so ErrOutOfOrder is a
						// legal outcome; anything else is not.
						if err != nil && !errors.Is(err, flownet.ErrOutOfOrder) {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastGen uint64
					for i := 0; i < rounds; i++ {
						sh.View(func(n *flownet.Network, gen uint64) {
							if gen < lastGen {
								t.Errorf("generation went backwards: %d after %d", gen, lastGen)
							}
							lastGen = gen
							g, ok := n.FlowSubgraphBetween(0, 2)
							if !ok {
								t.Error("chain disappeared")
								return
							}
							if _, err := flownet.PreSim(g, flownet.EngineLP); err != nil {
								t.Errorf("PreSim under concurrent appends: %v", err)
							}
						})
						_ = sh.Generation() + uint64(sh.Pending()) // lock-free reads race with nothing
					}
				}()
			}
			wg.Wait()
			if got := flow02(t, sh); got < 5 {
				t.Fatalf("final flow = %g, want >= 5", got)
			}
			if reopen != nil {
				before := stateOf(sh)
				if back := stateOf(reopen()); back != before {
					t.Fatalf("state changed across the restart:\n  before %+v\n  after  %+v", before, back)
				}
			}
		})
	}
}
