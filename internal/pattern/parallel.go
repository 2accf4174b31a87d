package pattern

import (
	"flownet/internal/par"
	"flownet/internal/tin"
)

// This file contains the parallel execution layer of the pattern searches,
// with two units of work, both folded by par.Ordered. searchAnchors fans
// out whole anchors — the relaxed GB searches and the decomposable rigid
// ones, whose instances cost a scan each, a couple of microseconds, so a
// worker claims the next anchor with one atomic add and hands its flows to
// the fold under one lock. searchInstances fans out single instances — the
// LP-class work (P4/P6 GB and PB), where a hub anchor holds most of the
// instances and per-anchor fan-out would leave one worker solving them; its
// enumeration stays sequential and fills a block of instances at a time,
// which the workers then solve. Either way results reach the one fold
// (search.go) in enumeration order, so the Summary is bit-for-bit the same
// for any Options.Workers value — including TotalFlow (floating-point
// addition order preserved), the MaxInstances cut-off, the Truncated flag,
// and which error is reported first. There is no separate sequential arm:
// with one worker par.Ordered is the plain loop.

// flowOutcome is one solved instance: its maximum flow or the error that
// prevented computing it.
type flowOutcome struct {
	flow float64
	err  error
}

// searchInstances folds the flows of the instances produced by enumerate
// into a Summary, solving them on opts.workers() goroutines. enumerate must
// call emit once per instance in deterministic order and stop when emit
// returns false; emit copies the instance, so the enumerator may reuse it.
// Instances are solved a block of cancelEvery at a time, the stride of the
// fold's cancellation poll.
func searchInstances(p *Pattern, n *tin.Network, opts Options, enumerate func(emit func(*Instance) bool)) (Summary, error) {
	f := newFold(p.Name, opts)
	workers := opts.workers()
	block := instanceBlock{nv: p.NV, ne: len(p.Edges)}
	solve := func(i int) flowOutcome {
		inst := block.at(i)
		flow, err := InstanceFlow(n, p, &inst, opts.Engine)
		return flowOutcome{flow, err}
	}
	// Cancellation is polled here, as the fold takes each result.
	reduce := func(r flowOutcome) bool {
		if !f.live() {
			return false
		}
		if r.err != nil {
			f.err = r.err
			return false
		}
		return f.add(r.flow)
	}
	flush := func() bool {
		more := par.Ordered(workers, block.count, solve, reduce)
		block.reset()
		return more
	}
	var produced int64
	enumerate(func(inst *Instance) bool {
		block.add(inst)
		// The fold never looks past the cut-off; stopping the enumeration
		// here keeps the work identical.
		if produced++; opts.MaxInstances > 0 && produced >= opts.MaxInstances {
			flush()
			return false
		}
		return block.count < cancelEvery || flush()
	})
	if block.count > 0 {
		flush()
	}
	return f.result()
}

// instanceBlock holds instances of one pattern by value, in two flat
// slabs, so a block costs no allocation once its slabs have grown.
type instanceBlock struct {
	nv, ne int
	v      []tin.VertexID
	e      []tin.EdgeID
	count  int
}

func (b *instanceBlock) add(inst *Instance) {
	b.v = append(b.v, inst.V...)
	b.e = append(b.e, inst.EdgeIDs...)
	b.count++
}

// at returns the i-th instance, sharing the slabs.
func (b *instanceBlock) at(i int) Instance {
	return Instance{V: b.v[i*b.nv : (i+1)*b.nv], EdgeIDs: b.e[i*b.ne : (i+1)*b.ne]}
}

func (b *instanceBlock) reset() {
	b.v, b.e, b.count = b.v[:0], b.e[:0], 0
}

// searchAnchors folds the instances found at each anchor 0..NumVertices-1
// into a Summary. collect computes the flows of one anchor's instances
// with a pooled collector (it runs concurrently for distinct anchors when
// opts.workers() > 1); they are folded in (anchor, instance) order, so the
// result is the same for any worker count.
func searchAnchors(name string, n *tin.Network, opts Options, collect func(c *collector, a tin.VertexID) []float64) (Summary, error) {
	f := newFold(name, opts)
	par.Ordered(opts.workers(), n.NumVertices(),
		func(a int) []float64 {
			c := collectors.Get().(*collector)
			flows := collect(c, tin.VertexID(a))
			collectors.Put(c)
			return flows
		},
		func(flows []float64) bool { return f.live() && f.addAll(flows) })
	return f.result()
}
