package main

import (
	"fmt"

	"flownet"
)

// workload is one traffic mix against one corpus. The reasons each exists
// are recorded here, in BENCHMARK.json and in README.md.
type workload struct {
	Name string
	Why  string

	// Corpus: a flownet.Generate* shape and a vertex count.
	Shape    string // "bitcoin" or "prosper"
	Vertices int
	scale    float64 // generator scale; 0 = the shape's own

	// MaxIA, when non-zero, caps seed and batch extraction below the
	// server's default of 10000 interactions: a larger subgraph is answered
	// "no subgraph" instead of being solved.
	MaxIA int

	// ServerArgs are flownetd flags beyond -listen and -net; DataDir adds
	// -data-dir <tmp> (the durable store) and ends the run with a SIGKILL
	// and a recovery.
	ServerArgs []string
	DataDir    bool

	// Clients is the number of closed-loop query clients, one connection
	// each, never more than the 2 cores the benchmark is sized for.
	Clients int
	// IngestPerSec > 0 adds one open-loop writer sending that many
	// ingestBatch-sized batches per second on a fixed schedule.
	IngestPerSec int

	// Warmup is the op count each client sends before measurement; TraceK
	// the op count of each traced pass. Both are fixed counts so that what
	// they leave behind (cache contents, span counts) does not depend on
	// how fast the machine is.
	Warmup, TraceK int

	// Primary and Secondary are the op kinds behind primary_* and
	// secondary_p50_ms; PrimaryMissOnly restricts the primary samples to
	// responses computed rather than replayed from the response cache.
	// TailPct is the percentile client.primary_tail_ms reports: one with several
	// times minBeyond samples beyond it in a run of the default length, and
	// inside the bulk of the slow population rather than at its edge (the
	// p99 of a 1%-sized population moves 30% from run to run).
	Primary, Secondary opKind
	PrimaryMissOnly    bool
	TailPct            float64

	// next draws the next operation of a query client's stream.
	next func(s *opStream) op
}

// The suite of pattern searches one opSuite operation performs: the §6.3
// comparison on the patterns whose searches stay in the tens of
// milliseconds on btc3k. P1 (GB ≈ 0.4 s) and the non-precomputable P4 and
// P6 (≈ 0.7 s either way) would leave a run with a handful of samples;
// they are timed in the per-layer probes instead.
var (
	suiteGB = []string{"P2", "P3", "P5", "RP2", "RP3"}
	suitePB = []string{"P1", "P2", "P3", "P5", "RP2", "RP3"}
)

// lookupCap bounds the work of one interactive lookup: the median seed
// subgraph has about 100 interactions, 1 in 10 has more than 300, and the
// uncapped tail (class-C LPs of 20 to 130 ms, 1% of the operations) would
// otherwise take half of a run's time and make its throughput a lottery.
// paper_eval runs the same queries uncapped.
const lookupCap = 300

// patternBound is the max= of ingest_mix's pattern queries.
const patternBound = 1000

var workloads = []*workload{
	{
		Name:  "point_lookup",
		Why:   "read-only Zipf seed lookups (95%) and 16-seed batches (5%) capped at 300 interactions on a 20000-vertex corpus: tens of us of engine work per op, so the wire path and the response cache dominate",
		Shape: "bitcoin", Vertices: 20000, MaxIA: lookupCap,
		Clients: 2, Warmup: 500, TraceK: 2000,
		Primary: opSeed, PrimaryMissOnly: true, Secondary: opBatch, TailPct: 95,
		next: func(s *opStream) op {
			if s.rng.Float64() < 0.95 {
				return s.seedOp()
			}
			return s.uniformBatchOp(16)
		},
	},
	{
		Name:  "pair_heavy",
		Why:   "read-only pair queries on a 4000-vertex Prosper corpus: each extracts the giant component and solves it with TEG/Dinic, wire path under 1% - the bypass workload for wire-path and cache changes",
		Shape: "prosper", Vertices: 4000,
		Clients: 2, Warmup: 25, TraceK: 60,
		Primary: opPair, Secondary: opPairWin, TailPct: 90,
		next: func(s *opStream) op { return s.pairOp() },
	},
	{
		Name:  "ingest_mix",
		Why:   "an open-loop writer (8 batches/s of 32) beside two closed-loop seed readers on the durable store, 6000 vertices: point_lookup's layers with writes beside reads - arena rebuild, lock wait, WAL",
		Shape: "bitcoin", Vertices: 6000, MaxIA: lookupCap,
		ServerArgs: []string{"-allow-ingest", "-snapshot-every", "32"}, DataDir: true,
		Clients: 2, IngestPerSec: 8, Warmup: 500, TraceK: 2000,
		Primary: opSeed, PrimaryMissOnly: true, Secondary: opIngest, TailPct: 95,
		// No pattern queries in the mix: the first PB search after an
		// ingest patches or rebuilds the path tables under the read lock
		// (60 ms to 1.2 s at 20000 vertices), so even a 1% share stalls the
		// writer into a growing backlog. The end-state gate asks them, once.
		next: func(s *opStream) op { return s.seedOp() },
	},
	{
		Name:  "paper_eval",
		Why:   "the paper's evaluation through the service on a 3000-vertex corpus: 64-seed batches sweeping all vertices (6.2) and GB/PB pattern suites (6.3) - ms of core/lp/pattern/par work per op, no cache hits",
		Shape: "bitcoin", Vertices: 3000,
		ServerArgs: []string{"-precompute"},
		Clients:    1, Warmup: 26, TraceK: 52,
		Primary: opBatch, Secondary: opSuite, TailPct: 90,
		next: func(s *opStream) op {
			// Twelve batches, then one suite: about half the time each.
			if s.n%13 == 12 {
				return op{Kind: opSuite, Nonce: s.rng.Intn(1 << 30)}
			}
			return s.passBatchOp(64)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smallVertices is the corpus size of the smoke tests' variant of a
// workload; smallDivisor scales the fixed op counts down with it;
// smallScale thins that corpus's edges and interactions (the generators'
// communities have a fixed size, so a 300-vertex network at full scale is
// dense enough to make every seed subgraph a large LP).
const (
	smallVertices = 300
	smallDivisor  = 20
	smallScale    = 0.25
)

// sized returns the workload as run: itself, or its smoke-test variant
// with the 300-vertex corpus and a twentieth of the warm-up and trace ops.
func (w *workload) sized(small bool) *workload {
	if !small {
		return w
	}
	s := *w
	s.Vertices, s.scale = smallVertices, smallScale
	s.Warmup = max(1, w.Warmup/smallDivisor)
	s.TraceK = max(13, w.TraceK/smallDivisor)
	return &s
}

// corpusSeed is the generator seed of every corpus. The corpus is the
// dataset, fixed like the paper's; a run's seed chooses the operations
// against it. (Ten corpora from ten generator seeds differ by 10 to 30% in
// median latency, which would be measured as run-to-run spread.)
const corpusSeed = 1

// generate builds the workload's corpus.
func (w *workload) generate() *flownet.Network {
	cfg := flownet.DatasetConfig{Vertices: w.Vertices, Seed: corpusSeed, Scale: w.scale}
	if w.Shape == "prosper" {
		return flownet.GenerateProsper(cfg)
	}
	return flownet.GenerateBitcoin(cfg)
}
