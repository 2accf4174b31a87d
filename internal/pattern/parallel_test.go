package pattern

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// searchBoth runs a searcher sequentially and with the given worker counts
// and requires every Summary to be identical — bit-for-bit, TotalFlow
// included. This is the contract of the parallel execution layer: the
// worker pool must be unobservable in the results.
func searchBoth(t *testing.T, name string, run func(opts Options) (Summary, error), opts Options) Summary {
	t.Helper()
	opts.Workers = 1
	want, err := run(opts)
	if err != nil {
		t.Fatalf("%s sequential: %v", name, err)
	}
	for _, workers := range []int{2, 3, 8} {
		opts.Workers = workers
		got, err := run(opts)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if got != want {
			t.Errorf("%s workers=%d: %+v, sequential %+v", name, workers, got, want)
		}
	}
	return want
}

// TestParallelSearchMatchesSequential checks GB and PB on every catalogue
// pattern, exhaustively and under tight MaxInstances cut-offs. Run under
// -race this doubles as the concurrency-safety test for the shared
// network, tables and core pipeline.
func TestParallelSearchMatchesSequential(t *testing.T) {
	n := randomNetwork(11, 16)
	tb := Precompute(n, true)
	for _, p := range Catalogue {
		p := p
		for _, max := range []int64{0, 1, 2, 7} {
			opts := Options{MaxInstances: max, Engine: core.EngineLP}
			gb := searchBoth(t, p.Name+"/GB", func(o Options) (Summary, error) {
				return SearchGB(n, p, o)
			}, opts)
			if max == 0 && gb.Instances == 0 {
				t.Errorf("%s: no instances in test network; equivalence check vacuous", p.Name)
			}
			searchBoth(t, p.Name+"/PB", func(o Options) (Summary, error) {
				return SearchPB(n, tb, p, o)
			}, opts)
		}
	}
}

// TestParallelSearchMinPaths covers the relaxed patterns' MinPaths filter
// under parallel execution.
func TestParallelSearchMinPaths(t *testing.T) {
	n := randomNetwork(23, 18)
	for _, p := range []*Pattern{RP1, RP2, RP3} {
		p := p
		searchBoth(t, p.Name+"/minpaths", func(o Options) (Summary, error) {
			return SearchGB(n, p, o)
		}, Options{MinPaths: 2})
	}
}

// TestParallelTruncationSemantics pins down the cut-off contract: the
// parallel search must report exactly the first MaxInstances instances in
// enumeration order, with Truncated set iff the cut-off was reached. The
// hub inputs put the cut inside one anchor, whose instances one worker
// collects: its Summary, flow bits included, must not depend on the
// worker count either.
func TestParallelTruncationSemantics(t *testing.T) {
	random, hub := randomNetwork(11, 16), hubNetwork(14)
	for _, c := range []struct {
		name string
		n    *tin.Network
		p    *Pattern
		hub  bool
	}{{"random/P2", random, P2, false}, {"hub/P2", hub, P2, true}, {"hub/P5", hub, P5, true}} {
		exhaustive, err := SearchGB(c.n, c.p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if exhaustive.Instances < 3 {
			t.Fatalf("%s: need >= 3 instances, have %d", c.name, exhaustive.Instances)
		}
		cuts := []int64{exhaustive.Instances - 1, exhaustive.Instances}
		if c.hub {
			// The hub, vertex 0, is the first anchor; cut halfway into it.
			atHub := int64(0)
			if err := EnumerateGB(c.n, c.p, func(inst *Instance) bool {
				if inst.V[c.p.Source] != 0 {
					return false
				}
				atHub++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if atHub < 4 {
				t.Fatalf("%s: the hub has %d instances", c.name, atHub)
			}
			cuts = append(cuts, atHub/2)
		}
		for _, max := range cuts {
			want, err := SearchGB(c.n, c.p, Options{MaxInstances: max, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Truncated || want.Instances != max {
				t.Errorf("%s cut-off %d: %+v, want %d instances truncated", c.name, max, want, max)
			}
			// Cut-off exactly at the instance count still marks Truncated,
			// like the sequential search always has.
			if max == exhaustive.Instances && math.Float64bits(want.TotalFlow) != math.Float64bits(exhaustive.TotalFlow) {
				t.Errorf("%s exact cut-off: %+v, exhaustive %+v", c.name, want, exhaustive)
			}
			for _, workers := range []int{2, 4} {
				got, err := SearchGB(c.n, c.p, Options{MaxInstances: max, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got != want || math.Float64bits(got.TotalFlow) != math.Float64bits(want.TotalFlow) {
					t.Errorf("%s cut-off %d workers=%d: %+v, sequential %+v", c.name, max, workers, got, want)
				}
			}
		}
	}
}

// hubNetwork is a hub, vertex 0, on a 2-cycle with every other vertex and
// on the 3-cycle 0→v→v+1→0 for every v, each edge carrying a few
// interactions with fractional quantities: anchor 0 holds most of the P2
// and P5 instances.
func hubNetwork(v int) *tin.Network {
	rng := rand.New(rand.NewSource(3))
	nb := tin.NewBuilder(v)
	add := func(a, b int) {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			nb.AddInteraction(tin.VertexID(a), tin.VertexID(b), float64(rng.Intn(20)), float64(1+rng.Intn(999))/100)
		}
	}
	for x := 1; x < v; x++ {
		add(0, x)
		add(x, 0)
		if x+1 < v {
			add(x, x+1)
		}
	}
	return nb.Finalize()
}

// TestInstanceClone verifies the deep copy EnumerateGB consumers rely on.
func TestInstanceClone(t *testing.T) {
	in := &Instance{V: []tin.VertexID{1, 2}, EdgeIDs: []tin.EdgeID{3}}
	c := in.Clone()
	c.V[0] = 9
	c.EdgeIDs[0] = 9
	if in.V[0] != 1 || in.EdgeIDs[0] != 3 {
		t.Errorf("Clone shares storage with the original")
	}
}

// TestSearchCancellation: an expired Options.Ctx stops every search plan —
// GB and PB, rigid and relaxed, sequential and parallel — with the context
// error, and a live context changes nothing.
func TestSearchCancellation(t *testing.T) {
	n := randomNetwork(11, 16)
	tb := Precompute(n, true)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range Catalogue {
		for _, workers := range []int{1, 4} {
			opts := Options{Engine: core.EngineLP, Workers: workers, Ctx: expired}
			if _, err := SearchGB(n, p, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/GB workers=%d with expired ctx: err = %v, want context.Canceled", p.Name, workers, err)
			}
			if _, err := SearchPB(n, tb, p, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/PB workers=%d with expired ctx: err = %v, want context.Canceled", p.Name, workers, err)
			}
			// A live context must not disturb the result.
			opts.Ctx = context.Background()
			if _, err := SearchGB(n, p, opts); err != nil {
				t.Errorf("%s/GB with live ctx: %v", p.Name, err)
			}
			if _, err := SearchPB(n, tb, p, opts); err != nil {
				t.Errorf("%s/PB with live ctx: %v", p.Name, err)
			}
		}
	}
}
