package pattern

import (
	"flownet/internal/core"
	"flownet/internal/tin"
)

// InstanceFlow computes the maximum flow through a rigid pattern instance:
// the instance's edges are assembled into a flow graph (splitting the
// anchor of cyclic patterns into source and sink copies) and solved with
// the paper's complete PreSim pipeline. For patterns marked Decomposable
// the pipeline stops at the greedy stage automatically (class A).
func InstanceFlow(n *tin.Network, p *Pattern, inst *Instance, engine core.Engine) (float64, error) {
	g := n.BuildFlowGraph(inst.EdgeIDs, inst.V[p.Source], inst.V[p.Sink])
	res, err := core.PreSim(g, engine)
	if err != nil {
		return 0, err
	}
	return res.Flow, nil
}
