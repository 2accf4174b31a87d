package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"flownet"
)

// opKind names one kind of operation a workload issues. Latency samples
// are grouped by kind; each workload names one kind as its primary and one
// as its secondary operation (see workloads.go).
type opKind uint8

const (
	opSeed    opKind = iota // GET /flow?seed=            §6.2 returning-path flow around a vertex
	opSeedWin               // the same inside a time window
	opBatch                 // POST /flow/batch           the §6.2 experiment over a seed list
	opPair                  // GET /flow?source=&sink=    flow between two vertices
	opPairWin               // the same inside a time window
	opPattern               // GET /patterns              one bounded PB search (P2 or P3)
	opSuite                 // GET /patterns, 11 times    the §6.3 GB and PB searches, one analyst task
	opIngest                // POST /ingest               32 time-ordered interactions
	numKinds
)

var kindNames = [numKinds]string{"seed", "seed_windowed", "batch", "pair", "pair_windowed", "pattern", "pattern_suite", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated operation: everything the load generator sends and
// everything the in-process replay needs to recompute the answer.
type op struct {
	Kind     opKind
	V, W     int       // seed vertex, or pair source and sink
	From, To float64   // inclusive time window (opSeedWin, opPairWin)
	MaxIA    int       // seed and batch extraction cap in interactions (0 = the server's default, 10000)
	Seeds    []int     // opBatch
	Pattern  string    // opPattern
	Nonce    int       // opSuite: folded into max= so repeated suites miss the response cache
	Items    []ingItem // opIngest
}

type ingItem = flownet.IngestInteraction

// String renders the op on one line, for -list-ops and for diffing streams.
func (o op) String() string {
	if o.MaxIA != 0 {
		capped := o
		capped.MaxIA = 0
		return fmt.Sprintf("%s cap=%d", capped, o.MaxIA)
	}
	switch o.Kind {
	case opSeed:
		return fmt.Sprintf("seed %d", o.V)
	case opSeedWin:
		return fmt.Sprintf("seed %d window [%g,%g]", o.V, o.From, o.To)
	case opPair:
		return fmt.Sprintf("pair %d %d", o.V, o.W)
	case opPairWin:
		return fmt.Sprintf("pair %d %d window [%g,%g]", o.V, o.W, o.From, o.To)
	case opBatch:
		return "batch " + strings.Trim(strings.Join(strings.Fields(fmt.Sprint(o.Seeds)), ","), "[]")
	case opPattern:
		return "pattern " + o.Pattern + " pb max=1000"
	case opSuite:
		return fmt.Sprintf("pattern_suite nonce=%d", o.Nonce)
	case opIngest:
		var b strings.Builder
		b.WriteString("ingest")
		for _, it := range o.Items {
			fmt.Fprintf(&b, " %d>%d@%g:%g", it.From, it.To, it.Time, it.Qty)
		}
		return b.String()
	}
	return "?"
}

// streamSeed derives the RNG seed of one op stream from (seed, workload,
// client) by a hash, so that no two streams of any two runs coincide: with
// seed+client, "-seed 1 client 1" and "-seed 2 client 0" would replay the
// same operations, and a second run against a warm cache would measure
// hits it believes are misses.
func streamSeed(seed int64, workload string, client int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("flowbench|%d|%s|%d", seed, workload, client)))
	return int64(binary.LittleEndian.Uint64(h[:8]))
}

// Stream indices that are not closed-loop query clients.
const (
	popularityStream = -1 // the rank→vertex permutation: which vertices are popular, drawn from corpusSeed
	writerStream     = -2 // the ingest_mix writer
	traceStream      = -3 // the traced passes: operations the measured phase never sent
	probeStream      = -4 // the per-layer probes
	groupingStream   = -5 // paper_eval's partition of the vertex set, drawn from corpusSeed
)

// corpusShape is what op generation needs to know about a corpus.
type corpusShape struct {
	NumV    int
	MaxTime float64
}

// opStream generates one client's operations. It depends on nothing but
// (seed, workload, client) and the corpus shape.
type opStream struct {
	wl     *workload
	client int
	shape  corpusShape
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int // popularity rank → vertex
	n      int   // ops generated so far

	groups [][]int // paper_eval: the fixed partition of the vertex set into batches
	order  []int   // paper_eval: the groups of the current pass still to ask
	clock  float64 // ingest: the last timestamp issued
}

func newOpStream(seed int64, wl *workload, client int, shape corpusShape) *opStream {
	s := &opStream{
		wl:     wl,
		client: client,
		shape:  shape,
		rng:    rand.New(rand.NewSource(streamSeed(seed, wl.Name, client))),
		clock:  shape.MaxTime,
	}
	s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(shape.NumV-1))
	// Which vertices are popular is part of the dataset, like the corpus:
	// with Zipf(1.1) the few hottest vertices take a fifth of the draws, and
	// a hot set redrawn per seed moved the median miss by 10% between seeds.
	s.perm = rand.New(rand.NewSource(streamSeed(corpusSeed, wl.Name, popularityStream))).Perm(shape.NumV)
	return s
}

// next returns the stream's next operation: an ingest batch on the
// writer's stream, a draw from the workload's query mix on any other.
func (s *opStream) next() op {
	var o op
	if s.client == writerStream {
		o = s.ingestOp()
	} else {
		o = s.wl.next(s)
	}
	s.n++
	return o
}

// windowShare is the share of seed and pair queries that carry a time
// window; windows start in the first half of the corpus's time range and
// span a quarter to a half of it.
const windowShare = 0.25

func (s *opStream) window() (from, to float64) {
	from = s.rng.Float64() * 0.5 * s.shape.MaxTime
	to = from + (0.25+0.25*s.rng.Float64())*s.shape.MaxTime
	// Whole numbers survive the query string's float formatting exactly.
	return float64(int64(from)), float64(int64(to))
}

// seedOp draws a Zipf(1.1)-popular vertex: a few vertices are asked about
// again and again (the response cache's case), most only once.
func (s *opStream) seedOp() op {
	o := op{Kind: opSeed, V: s.perm[s.zipf.Uint64()], MaxIA: s.wl.MaxIA}
	if s.rng.Float64() < windowShare {
		o.Kind = opSeedWin
		o.From, o.To = s.window()
	}
	return o
}

func (s *opStream) pairOp() op {
	a := s.rng.Intn(s.shape.NumV)
	b := s.rng.Intn(s.shape.NumV - 1)
	if b >= a {
		b++
	}
	o := op{Kind: opPair, V: a, W: b}
	if s.rng.Float64() < windowShare {
		o.Kind = opPairWin
		o.From, o.To = s.window()
	}
	return o
}

func (s *opStream) uniformBatchOp(size int) op {
	seeds := make([]int, size)
	for i := range seeds {
		seeds[i] = s.rng.Intn(s.shape.NumV)
	}
	return op{Kind: opBatch, Seeds: seeds, MaxIA: s.wl.MaxIA}
}

// passBatchOp hands out the vertex set size seeds at a time. The groups are
// part of the dataset (drawn once, from corpusSeed), so every pass asks the
// same batches whatever the seed and the distribution of batch costs is
// the corpus's, not a fresh draw per run (regrouping moved the median
// batch by 10% between seeds). The seed decides the order of the groups in
// each pass and of the seeds inside each group, which also gives every
// request a response-cache key of its own.
func (s *opStream) passBatchOp(size int) op {
	if s.groups == nil {
		perm := rand.New(rand.NewSource(streamSeed(corpusSeed, s.wl.Name, groupingStream))).Perm(s.shape.NumV)
		for len(perm) > 0 {
			n := min(size, len(perm))
			s.groups, perm = append(s.groups, perm[:n]), perm[n:]
		}
	}
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(s.groups))
	}
	seeds := append([]int(nil), s.groups[s.order[0]]...)
	s.order = s.order[1:]
	s.rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	return op{Kind: opBatch, Seeds: seeds, MaxIA: s.wl.MaxIA}
}

// batchItems converts an ingest operation's wire items to the library's.
func batchItems(items []ingItem) []flownet.BatchItem {
	out := make([]flownet.BatchItem, len(items))
	for i, it := range items {
		out[i] = flownet.BatchItem{From: flownet.VertexID(it.From), To: flownet.VertexID(it.To), Time: it.Time, Qty: it.Qty}
	}
	return out
}

// ingestBatch is the interaction count of one ingest operation.
const ingestBatch = 32

// ingestOp builds one in-order batch: timestamps continue strictly upward
// from the corpus's latest, endpoints are uniform.
func (s *opStream) ingestOp() op {
	items := make([]ingItem, ingestBatch)
	for i := range items {
		a := s.rng.Intn(s.shape.NumV)
		b := s.rng.Intn(s.shape.NumV - 1)
		if b >= a {
			b++
		}
		s.clock++
		items[i] = ingItem{From: a, To: b, Time: s.clock, Qty: float64(1 + s.rng.Intn(1000))}
	}
	return op{Kind: opIngest, Items: items}
}
