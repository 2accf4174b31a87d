package pattern

import (
	"flownet/internal/par"
	"flownet/internal/tin"
)

// This file contains the parallel execution layer of the pattern searches,
// with two units of work. searchAnchors fans out whole anchors — the
// relaxed GB searches and the decomposable rigid ones, whose instances cost
// a scan each, so one channel hand-off per instance would cost more than
// the flow. searchInstances keeps enumeration single-threaded and fans out
// single instances — the LP-class work (P4/P6 GB and PB), where a hub
// anchor holds most of the instances and per-anchor fan-out would leave
// one worker solving them. Either way results reach the one fold
// (search.go) in enumeration order via par.OrderedFanOut, so the Summary
// is bit-for-bit the same for any Options.Workers value — including
// TotalFlow (floating-point addition order preserved), the MaxInstances
// cut-off, the Truncated flag, and which error is reported first. There is
// no separate sequential arm: with one worker OrderedFanOut is the plain
// loop.

// flowOutcome is one solved instance: its maximum flow or the error that
// prevented computing it.
type flowOutcome struct {
	flow float64
	err  error
}

// searchInstances folds the flows of the instances produced by enumerate
// into a Summary, solving them on opts.workers() goroutines (with one
// worker par.OrderedFanOut runs everything inline on the caller).
// enumerate must call emit once per instance in deterministic order and
// stop when emit returns false. If reused is true the emitted *Instance is
// reused by the enumerator (as EnumerateGB does) and is cloned before it
// crosses a goroutine boundary.
func searchInstances(p *Pattern, n *tin.Network, opts Options, reused bool, enumerate func(emit func(*Instance) bool)) (Summary, error) {
	f := newFold(p.Name, opts)
	workers := opts.workers()
	par.OrderedFanOut(workers,
		func(emit func(*Instance) bool) {
			var produced int64
			enumerate(func(inst *Instance) bool {
				if reused && workers > 1 {
					inst = inst.Clone()
				}
				if !emit(inst) {
					return false
				}
				produced++
				// The fold never looks past the cut-off; stopping the
				// producer here keeps the work identical.
				return opts.MaxInstances <= 0 || produced < opts.MaxInstances
			})
		},
		func(inst *Instance) flowOutcome {
			flow, err := InstanceFlow(n, p, inst, opts.Engine)
			return flowOutcome{flow, err}
		},
		// Cancellation is polled here, on the caller goroutine; abandoning
		// the reduction drains the pool, so a cancelled search never leaks
		// workers.
		func(r flowOutcome) bool {
			if !f.live() {
				return false
			}
			if r.err != nil {
				f.err = r.err
				return false
			}
			return f.add(r.flow)
		})
	return f.result()
}

// searchAnchors folds the instances found at each anchor 0..NumVertices-1
// into a Summary. collect computes the flows of one anchor's instances in
// isolation (it runs concurrently for distinct anchors when
// opts.workers() > 1); they are folded in (anchor, instance) order, so the
// result is the same for any worker count.
func searchAnchors(name string, n *tin.Network, opts Options, collect func(a tin.VertexID) []float64) (Summary, error) {
	f := newFold(name, opts)
	par.OrderedFanOut(opts.workers(),
		func(emit func(tin.VertexID) bool) {
			for a := 0; a < n.NumVertices(); a++ {
				if !emit(tin.VertexID(a)) {
					return
				}
			}
		},
		collect,
		func(flows []float64) bool { return f.live() && f.addAll(flows) })
	return f.result()
}
