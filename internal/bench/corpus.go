// Package bench drives the paper's experimental evaluation (Section 6) on
// the synthetic datasets: it extracts the seed-based subgraph corpus of
// §6.2, times the four flow-computation methods (Greedy, LP, Pre, PreSim)
// per difficulty class and per interaction-count bucket, and times GB vs PB
// pattern search — regenerating the content of Tables 4–11 and Figure 11.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"flownet/internal/core"
	"flownet/internal/par"
	"flownet/internal/tin"
)

// CorpusOptions control subgraph corpus construction.
type CorpusOptions struct {
	// Extract are the §6.2 extraction parameters (3 hops, ≤10K interactions
	// by default).
	Extract tin.ExtractOptions
	// MaxSubgraphs caps the corpus size (0 = unlimited).
	MaxSubgraphs int
	// Workers bounds the pool that extracts and classifies seed subgraphs
	// (0 = GOMAXPROCS, 1 = sequential). The corpus is identical for every
	// worker count.
	Workers int
}

// DefaultCorpusOptions mirror the paper's setup.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{Extract: tin.DefaultExtractOptions()}
}

// Subgraph is one corpus entry: the flow instance extracted around a seed,
// pre-classified into the paper's difficulty classes.
type Subgraph struct {
	Seed  tin.VertexID
	G     *tin.Graph
	Class core.Class
}

// BuildCorpus scans seed vertices in ascending id order and extracts one
// flow subgraph per seed with a returning path (Section 6.2). Each subgraph
// is classified with the Pre pipeline's logic: A = greedy-soluble as-is,
// B = greedy-soluble after preprocessing, C = needs the exact engine.
//
// Extraction and classification run on opts.Workers goroutines
// (par.Ordered), and the subgraphs are collected in seed order, so the
// corpus (and the MaxSubgraphs cut) is the same for every worker count.
func BuildCorpus(n *tin.Network, opts CorpusOptions) []Subgraph {
	var corpus []Subgraph
	par.Ordered(par.Workers(opts.Workers), n.NumVertices(), func(v int) *Subgraph {
		g, ok := n.ExtractSubgraph(tin.VertexID(v), opts.Extract)
		if !ok {
			return nil
		}
		return &Subgraph{Seed: tin.VertexID(v), G: g, Class: classify(g)}
	}, func(s *Subgraph) bool {
		if s != nil {
			corpus = append(corpus, *s)
		}
		return opts.MaxSubgraphs <= 0 || len(corpus) < opts.MaxSubgraphs
	})
	return corpus
}

func classify(g *tin.Graph) core.Class {
	if core.GreedySoluble(g) {
		return core.ClassA
	}
	h := g.Clone()
	if _, err := core.Preprocess(h); err != nil {
		return core.ClassC // cyclic inputs cannot occur here; be conservative
	}
	if core.ZeroFlow(h) || core.GreedySoluble(h) {
		return core.ClassB
	}
	return core.ClassC
}

// CorpusStats summarizes a corpus in the shape of the paper's Table 5.
type CorpusStats struct {
	Count           int
	AvgVertices     float64
	AvgEdges        float64
	AvgInteractions float64
	PerClass        [3]int
	MaxInteractions int
}

// Stats computes corpus statistics.
func Stats(corpus []Subgraph) CorpusStats {
	var st CorpusStats
	st.Count = len(corpus)
	if st.Count == 0 {
		return st
	}
	for _, s := range corpus {
		st.AvgVertices += float64(s.G.NumLiveVertices())
		st.AvgEdges += float64(s.G.NumLiveEdges())
		ia := s.G.NumInteractions()
		st.AvgInteractions += float64(ia)
		if ia > st.MaxInteractions {
			st.MaxInteractions = ia
		}
		st.PerClass[s.Class]++
	}
	st.AvgVertices /= float64(st.Count)
	st.AvgEdges /= float64(st.Count)
	st.AvgInteractions /= float64(st.Count)
	return st
}

// PrintTable5 renders corpus statistics in the layout of Table 5.
func PrintTable5(w io.Writer, name string, st CorpusStats) {
	fmt.Fprintf(w, "%-16s %12s %14s %12s %18s %10s\n",
		"dataset", "#subgraphs", "avg #vertices", "avg #edges", "avg #interactions", "A/B/C")
	fmt.Fprintf(w, "%-16s %12d %14.2f %12.2f %18.1f %4d/%d/%d\n",
		name, st.Count, st.AvgVertices, st.AvgEdges, st.AvgInteractions,
		st.PerClass[0], st.PerClass[1], st.PerClass[2])
}

// fmtDuration renders an average duration in milliseconds with enough
// precision for sub-microsecond values, matching the paper's msec tables.
func fmtDuration(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms == 0:
		return "-"
	case ms < 0.01:
		return fmt.Sprintf("%.5f", ms)
	case ms < 1:
		return fmt.Sprintf("%.4f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}

// relErr is the tolerance used for cross-method flow agreement checks.
func relErr(a, b float64) float64 {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}
