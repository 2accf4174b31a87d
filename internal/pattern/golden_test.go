package pattern

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"flownet/internal/core"
	"flownet/internal/tin"
)

// testdata/golden_summaries.json freezes the package's numbers as computed
// by the commit before the §5 primitives were merged into single bodies
// (the parent of the PR that added this file). GB and PB share the walker,
// the grouping rule and the fold, so GB ≡ PB alone could no longer catch a
// mistake both sides make; bit equality with the old, independently
// written searchers does.
//
// Regenerate only on a deliberate change of results:
//
//	go test ./internal/pattern -run TestGoldenSummaries -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_summaries.json from the current code")

const goldenPath = "testdata/golden_summaries.json"

// bitsHex renders math.Float64bits(f) as 16 hex digits with the trailing
// zero digits dropped (the flows are sums of small integers, so most of the
// mantissa is zero); the fixed width makes that lossless.
func bitsHex(f float64) string {
	return strings.TrimRight(fmt.Sprintf("%016x", math.Float64bits(f)), "0")
}

type goldenTable struct {
	// Rows lists every row in table order as "v0,v1[,v2]:bitsHex(Flow)".
	Rows []string `json:"rows"`
	// Arrivals is a digest of every row's arrival sequence (time bits,
	// quantity bits, Ord), which is too bulky to store verbatim.
	Arrivals string `json:"arrivals_sha256"`
}

type goldenFile struct {
	// Summaries maps "net/pattern/mode/engine/maxN/minN" to
	// "n=Instances cut=Truncated flow=bitsHex(TotalFlow)".
	Summaries map[string]string      `json:"summaries"`
	Tables    map[string]goldenTable `json:"tables"`
}

func freezeTable(t *Table) goldenTable {
	g := goldenTable{Rows: make([]string, len(t.Rows))}
	h := sha256.New()
	for i := range t.Rows {
		r := &t.Rows[i]
		vs := make([]string, len(r.Verts))
		for j, v := range r.Verts {
			vs[j] = fmt.Sprint(v)
		}
		g.Rows[i] = strings.Join(vs, ",") + ":" + bitsHex(r.Flow)
		fmt.Fprintf(h, "row %d %v\n", i, r.Edges)
		for _, a := range r.Arr {
			fmt.Fprintf(h, "%016x %016x %d\n", math.Float64bits(a.Time), math.Float64bits(a.Qty), a.Ord)
		}
	}
	g.Arrivals = fmt.Sprintf("%x", h.Sum(nil))
	return g
}

// goldenAppend draws the 10-interaction append of one golden network: late
// enough to be a canonical-order append, dense enough to touch existing
// cycles and open new ones.
func goldenAppend(seed int64, n *tin.Network) []tin.BatchItem {
	rng := rand.New(rand.NewSource(seed + 1000))
	v := n.NumVertices()
	items := make([]tin.BatchItem, 0, 10)
	for len(items) < 10 {
		a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
		if a == b {
			continue
		}
		items = append(items, tin.BatchItem{
			From: a, To: b,
			Time: n.MaxTime() + float64(len(items)/2), // pairs of equal timestamps
			Qty:  float64(1 + rng.Intn(9)),
		})
	}
	return items
}

// computeGolden runs the whole grid on the current code.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	out := goldenFile{Summaries: map[string]string{}, Tables: map[string]goldenTable{}}
	for seed := int64(0); seed < 8; seed++ {
		for _, v := range []int{14, 40} {
			n := randomNetwork(seed, v)
			net := fmt.Sprintf("s%d/v%d", seed, v)
			tb := Precompute(n, true)
			for _, p := range Catalogue {
				engines := []core.Engine{core.EngineLP}
				if p == P4 || p == P6 {
					engines = append(engines, core.EngineTEG)
				}
				for _, eng := range engines {
					for _, workers := range []int{1, 4} {
						for _, max := range []int64{0, 5} {
							for _, minPaths := range []int{0, 2} {
								opts := Options{Engine: eng, Workers: workers, MaxInstances: max, MinPaths: minPaths}
								for _, mode := range []string{"gb", "pb"} {
									var sum Summary
									var err error
									if mode == "gb" {
										sum, err = SearchGB(n, p, opts)
									} else {
										sum, err = SearchPB(n, tb, p, opts)
									}
									// No Workers in the key: both worker counts must
									// reproduce the one frozen Summary.
									key := fmt.Sprintf("%s/%s/%s/%s/max%d/min%d", net, p.Name, mode, eng, max, minPaths)
									if err != nil {
										t.Fatalf("%s: %v", key, err)
									}
									if sum.Pattern != p.Name {
										t.Fatalf("%s: Summary.Pattern = %q", key, sum.Pattern)
									}
									g := fmt.Sprintf("n=%d cut=%t flow=%s", sum.Instances, sum.Truncated, bitsHex(sum.TotalFlow))
									if prev, ok := out.Summaries[key]; ok && prev != g {
										t.Fatalf("%s: workers=%d gives %s, workers=1 gave %s", key, workers, g, prev)
									}
									out.Summaries[key] = g
								}
							}
						}
					}
				}
			}

			out.Tables[net+"/precompute/L2"] = freezeTable(tb.L2)
			out.Tables[net+"/precompute/L3"] = freezeTable(tb.L3)
			out.Tables[net+"/precompute/C2"] = freezeTable(tb.C2)
			n, _, changed, err := n.WithBatch(goldenAppend(seed, n))
			if err != nil {
				t.Fatalf("%s: append: %v", net, err)
			}
			up := tb.Update(n, endpoints(n, changed))
			out.Tables[net+"/update/L2"] = freezeTable(up.L2)
			out.Tables[net+"/update/L3"] = freezeTable(up.L3)
			out.Tables[net+"/update/C2"] = freezeTable(up.C2)
		}
	}
	return out
}

func TestGoldenSummaries(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d summaries, %d tables", goldenPath, len(got.Summaries), len(got.Tables))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(got.Summaries) != len(want.Summaries) || len(got.Tables) != len(want.Tables) {
		t.Fatalf("grid changed: %d summaries and %d tables computed, fixture has %d and %d",
			len(got.Summaries), len(got.Tables), len(want.Summaries), len(want.Tables))
	}
	for key, w := range want.Summaries {
		if g, ok := got.Summaries[key]; !ok || g != w {
			t.Errorf("%s: got %q, fixture %q", key, g, w)
		}
	}
	for key, w := range want.Tables {
		g := got.Tables[key]
		if len(g.Rows) != len(w.Rows) {
			t.Errorf("%s: %d rows, fixture %d", key, len(g.Rows), len(w.Rows))
			continue
		}
		for i := range w.Rows {
			if g.Rows[i] != w.Rows[i] {
				t.Errorf("%s row %d: got %s, fixture %s", key, i, g.Rows[i], w.Rows[i])
				break
			}
		}
		if g.Arrivals != w.Arrivals {
			t.Errorf("%s: arrival sequences differ from the fixture", key)
		}
	}
}
