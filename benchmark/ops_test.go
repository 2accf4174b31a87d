package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

var testShape = corpusShape{NumV: 5000, MaxTime: 100000}

func streamText(seed int64, wl *workload, client, n int) string {
	s := newOpStream(seed, wl, client, testShape)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(s.next().String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, wl := range workloads {
		for _, client := range []int{0, 1, writerStream, traceStream} {
			if a, b := streamText(7, wl, client, 300), streamText(7, wl, client, 300); a != b {
				t.Errorf("%s client %d: two streams from one seed differ", wl.Name, client)
			}
		}
	}
}

// With seed+client as the RNG seed, (seed 1, client 1) and (seed 2, client
// 0) would be one stream. Hashing (seed, workload, client) keeps every
// stream of every run apart.
func TestStreamsOfDifferentSeedsAndClientsAreDisjoint(t *testing.T) {
	seen := map[int64]string{}
	texts := map[string]string{}
	for _, wl := range workloads {
		for seed := int64(0); seed < 20; seed++ {
			for _, client := range []int{0, 1, writerStream, traceStream, probeStream, popularityStream} {
				id := wl.Name + "/" + string(rune('a'+seed)) + "/" + string(rune('a'+client+8))
				ss := streamSeed(seed, wl.Name, client)
				if prev, dup := seen[ss]; dup {
					t.Fatalf("%s and %s share RNG seed %d", prev, id, ss)
				}
				seen[ss] = id
			}
		}
		for _, c := range []struct {
			seed   int64
			client int
		}{{1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}} {
			text := streamText(c.seed, wl, c.client, 200)
			for other, prev := range texts {
				if prev == text {
					t.Errorf("%s seed %d client %d replays %s", wl.Name, c.seed, c.client, other)
				}
			}
			texts[wl.Name+" seed "+string(rune('0'+c.seed))+" client "+string(rune('0'+c.client))] = text
		}
	}
}

func TestStreamsStayInsideTheCorpus(t *testing.T) {
	for _, wl := range workloads {
		for _, client := range []int{0, writerStream} {
			s := newOpStream(3, wl, client, testShape)
			last := testShape.MaxTime
			for i := 0; i < 2000; i++ {
				o := s.next()
				vs := append([]int{o.V, o.W}, o.Seeds...)
				for _, it := range o.Items {
					vs = append(vs, it.From, it.To)
					if it.Time <= last || it.From == it.To {
						t.Fatalf("%s: ingest item %+v not strictly after %v or a self loop", wl.Name, it, last)
					}
					last = it.Time
				}
				for _, v := range vs {
					if v < 0 || v >= testShape.NumV {
						t.Fatalf("%s: op %s names vertex %d outside [0,%d)", wl.Name, o, v, testShape.NumV)
					}
				}
				if (o.Kind == opPair || o.Kind == opPairWin) && o.V == o.W {
					t.Fatalf("%s: pair op with equal endpoints", wl.Name)
				}
				if (o.Kind == opSeedWin || o.Kind == opPairWin) && !(o.From < o.To) {
					t.Fatalf("%s: empty window in %s", wl.Name, o)
				}
			}
		}
	}
}

// paper_eval's batches sweep the vertex set: a pass names every vertex
// exactly once, and the groups are the same whatever the seed (only their
// order, and the order inside each, is the seed's).
func TestPassBatchesCoverEveryVertexOnce(t *testing.T) {
	wl, _ := workloadByName("paper_eval")
	shape := corpusShape{NumV: 640, MaxTime: 1000}
	pass := func(seed int64) map[string]bool {
		s := newOpStream(seed, wl, 0, shape)
		seen := make([]int, shape.NumV)
		groups := map[string]bool{}
		for batches := 0; batches < shape.NumV/64; {
			o := s.next()
			if o.Kind != opBatch {
				continue
			}
			batches++
			for _, v := range o.Seeds {
				seen[v]++
			}
			sorted := append([]int(nil), o.Seeds...)
			sort.Ints(sorted)
			groups[fmt.Sprint(sorted)] = true
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: vertex %d named %d times in one pass", seed, v, n)
			}
		}
		return groups
	}
	a, b := pass(5), pass(6)
	for g := range a {
		if !b[g] {
			t.Fatalf("group %s of seed 5 is not a group of seed 6", g)
		}
	}
}
