package datagen

import (
	"math"
	"math/rand"

	"flownet/internal/tin"
)

// Config parameterizes a dataset generator. The zero value of any field
// means "use the dataset's default".
type Config struct {
	// Vertices is the number of vertices (scaled-down defaults per dataset).
	Vertices int
	// Seed seeds the deterministic generator. The default 0 is a valid
	// seed; generation is reproducible for any fixed Config.
	Seed int64
	// Scale multiplies edge and interaction counts (default 1.0). Use <1
	// for quick tests, >1 for heavier benchmarking corpora.
	Scale float64
}

func (c Config) withDefaults(vertices int) Config {
	if c.Vertices == 0 {
		c.Vertices = vertices
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// community parameters shared by the generators: vertices are partitioned
// into communities inside which edges are dense, producing the local cycle
// structure (2-hop and 3-hop returning paths) that both the Section 6.2
// subgraph extraction and the pattern workloads of Section 6.3 rely on.
type shape struct {
	communitySize int
	// outEdges draws the number of outgoing intra-community edges of a
	// vertex.
	outEdges func(rng *rand.Rand) int
	// crossProb is the probability that an edge leaves its community.
	crossProb float64
	// reciprocalProb closes a→b with b→a, creating 2-hop cycles.
	reciprocalProb float64
	// triangleProb closes a→b→c with c→a, creating 3-hop cycles.
	triangleProb float64
	// interactions draws the interaction count of an edge.
	interactions func(rng *rand.Rand) int
	// amount draws one interaction quantity.
	amount func(rng *rand.Rand) float64
	// timeRange is the exclusive upper bound of integral timestamps.
	timeRange int
}

func generate(cfg Config, sh shape) *tin.Network {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	n := tin.NewBuilder(cfg.Vertices)
	v := cfg.Vertices

	type pair struct{ a, b tin.VertexID }
	edges := make(map[pair][2]bool) // presence marker
	var order []pair
	addEdge := func(a, b tin.VertexID) bool {
		if a == b || a < 0 || b < 0 || int(a) >= v || int(b) >= v {
			return false
		}
		p := pair{a, b}
		if _, ok := edges[p]; ok {
			return false
		}
		edges[p] = [2]bool{}
		order = append(order, p)
		return true
	}

	commOf := func(x tin.VertexID) int { return int(x) / sh.communitySize }
	commStart := func(c int) int { return c * sh.communitySize }
	commSize := func(c int) int {
		s := sh.communitySize
		if commStart(c)+s > v {
			s = v - commStart(c)
		}
		return s
	}

	// Topology.
	for a := 0; a < v; a++ {
		va := tin.VertexID(a)
		k := int(float64(sh.outEdges(rng)) * cfg.Scale)
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			var b tin.VertexID
			if rng.Float64() < sh.crossProb {
				b = tin.VertexID(rng.Intn(v))
			} else {
				c := commOf(va)
				b = tin.VertexID(commStart(c) + rng.Intn(commSize(c)))
			}
			if !addEdge(va, b) {
				continue
			}
			if rng.Float64() < sh.reciprocalProb {
				addEdge(b, va)
			}
			if rng.Float64() < sh.triangleProb {
				// close a triangle through a random community member
				c := commOf(b)
				w := tin.VertexID(commStart(c) + rng.Intn(commSize(c)))
				if addEdge(b, w) {
					addEdge(w, va)
				}
			}
		}
	}

	// Interactions.
	for _, p := range order {
		k := sh.interactions(rng)
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			t := float64(rng.Intn(sh.timeRange))
			n.AddInteraction(p.a, p.b, t, sh.amount(rng))
		}
	}
	return n.Finalize()
}

// lognormal draws exp(mu + sigma·N(0,1)) rounded to two decimals, floored
// at 0.01.
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	x := math.Exp(mu + sigma*rng.NormFloat64())
	x = math.Round(x*100) / 100
	if x < 0.01 {
		x = 0.01
	}
	return x
}

// zipfInt draws from a bounded Zipf distribution with exponent s ≥ 1.01 on
// {1, …, max}.
func zipfInt(rng *rand.Rand, s float64, max int) int {
	z := rand.NewZipf(rng, s, 1, uint64(max-1))
	return int(z.Uint64()) + 1
}

// Bitcoin generates a network with the structural shape of the paper's
// Bitcoin transaction dataset: heavy-tailed degrees, many interactions per
// edge (avg subgraph interaction counts in the hundreds), dense cyclic
// neighbourhoods, lognormal amounts. Default 30000 vertices.
func Bitcoin(cfg Config) *tin.Network {
	cfg = cfg.withDefaults(30000)
	return generate(cfg, shape{
		communitySize:  50,
		outEdges:       func(rng *rand.Rand) int { return zipfInt(rng, 2.1, 50) },
		crossProb:      0.20,
		reciprocalProb: 0.22,
		triangleProb:   0.10,
		interactions:   func(rng *rand.Rand) int { return zipfInt(rng, 1.22, 300) },
		amount:         func(rng *rand.Rand) float64 { return lognormal(rng, 0.5, 1.6) },
		timeRange:      1_000_000,
	})
}

// CTU13 generates a network with the shape of the CTU-13 botnet traffic
// dataset: hub-and-spoke topology (IP traffic concentrates on servers),
// short interaction sequences, byte-sized quantities. Default 15000
// vertices.
func CTU13(cfg Config) *tin.Network {
	cfg = cfg.withDefaults(15000)
	return generate(cfg, shape{
		communitySize:  30,
		outEdges:       func(rng *rand.Rand) int { return 1 + rng.Intn(2) },
		crossProb:      0.05,
		reciprocalProb: 0.45, // request/response pairs
		triangleProb:   0.02,
		interactions:   func(rng *rand.Rand) int { return 1 + rng.Intn(3) },
		amount:         func(rng *rand.Rand) float64 { return lognormal(rng, 6.5, 1.2) }, // ~bytes
		timeRange:      500_000,
	})
}

// Prosper generates a network with the shape of the Prosper peer-to-peer
// loans dataset: a dense small graph with essentially one interaction per
// edge and moderate dollar amounts. Default 4000 vertices.
func Prosper(cfg Config) *tin.Network {
	cfg = cfg.withDefaults(4000)
	return generate(cfg, shape{
		communitySize:  80,
		outEdges:       func(rng *rand.Rand) int { return 3 + zipfInt(rng, 1.5, 40) },
		crossProb:      0.25,
		reciprocalProb: 0.20,
		triangleProb:   0.15,
		interactions:   func(rng *rand.Rand) int { return 1 },
		amount:         func(rng *rand.Rand) float64 { return lognormal(rng, 3.8, 0.9) }, // ~$76 avg
		timeRange:      200_000,
	})
}

// Dataset names the three synthetic stand-ins.
type Dataset int

const (
	// DatasetBitcoin mimics the Bitcoin transactions network of Table 4.
	DatasetBitcoin Dataset = iota
	// DatasetCTU13 mimics the CTU-13 botnet traffic network.
	DatasetCTU13
	// DatasetProsper mimics the Prosper loans network.
	DatasetProsper
)

// String returns the dataset's display name as used in the paper's tables.
func (d Dataset) String() string {
	return [...]string{"Bitcoin", "CTU-13", "Prosper Loans"}[d]
}

// Generate builds the named dataset.
func Generate(d Dataset, cfg Config) *tin.Network {
	switch d {
	case DatasetBitcoin:
		return Bitcoin(cfg)
	case DatasetCTU13:
		return CTU13(cfg)
	default:
		return Prosper(cfg)
	}
}

// AllDatasets lists the three datasets in the paper's order.
var AllDatasets = []Dataset{DatasetBitcoin, DatasetCTU13, DatasetProsper}
