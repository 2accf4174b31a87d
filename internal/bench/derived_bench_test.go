package bench

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/server"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// Benchmarks behind the incremental derived-state path: patching PB path
// tables forward from an ingest delta vs rebuilding them from scratch, and
// an ingest beside a full response cache vs beside an empty one.

// appendedBenchNetwork returns a private copy of the bench corpus with an
// in-order batch appended (touching `deltaEdges` existing edges), plus the
// touched vertices (the changed edges' endpoints, ascending) and the tables
// built on the pre-append state — the exact inputs flownetd's warm-table
// path sees after an ingest.
func appendedBenchNetwork(tb testing.TB, deltaEdges int) (*tin.Network, []tin.VertexID, pattern.Tables) {
	tb.Helper()
	shared := loadBenchNetwork(tb)
	path := filepath.Join(tb.TempDir(), "net.tinb")
	if err := tin.SaveNetworkBinary(path, shared); err != nil {
		tb.Fatal(err)
	}
	n, err := tin.LoadNetwork(path)
	if err != nil {
		tb.Fatal(err)
	}
	before := pattern.Precompute(n, true)
	items := make([]tin.BatchItem, deltaEdges)
	for i := range items {
		ed := n.Edge(tin.EdgeID(i))
		items[i] = tin.BatchItem{From: ed.From, To: ed.To, Time: n.MaxTime() + float64(i) + 1, Qty: 1}
	}
	_, changed, err := n.AppendBatchDelta(items)
	if err != nil {
		tb.Fatal(err)
	}
	if len(changed) != deltaEdges {
		tb.Fatalf("delta covers %d edges, want %d", len(changed), deltaEdges)
	}
	var touched []tin.VertexID
	for _, e := range changed {
		touched = append(touched, n.Edge(e).From, n.Edge(e).To)
	}
	slices.Sort(touched)
	return n, slices.Compact(touched), before
}

// BenchmarkTableUpdateVsRebuild measures the two ways to bring stale PB
// path tables current after a small ingest: pattern.Tables.Update over the
// touched vertices (cost scales with the affected anchor neighborhoods)
// vs a full pattern.Precompute (cost scales with the whole network). The
// ratio is the point of the warm-table path; TestUpdateFasterThanRebuild
// pins it.
func BenchmarkTableUpdateVsRebuild(b *testing.B) {
	n, touched, before := appendedBenchNetwork(b, 4)
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := before.Update(n, touched)
			if t.L2 == nil {
				b.Fatal("empty update result")
			}
		}
		b.ReportMetric(float64(len(touched)), "touched-vertices/op")
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := pattern.Precompute(n, true)
			if t.L2 == nil {
				b.Fatal("empty rebuild result")
			}
		}
		b.ReportMetric(float64(n.NumEdges()), "edges/op")
	})
}

// TestUpdateFasterThanRebuild is the CI guard on the acceptance criterion
// behind the warm-table path: on a small delta over the bench corpus,
// patching the tables forward must be at least 5x faster than rebuilding
// them from scratch — per-ingest derived-state cost must scale with the
// delta, not the network. The server patches whatever the delta's size, so
// on a 2 048-edge delta patching must still beat a rebuild.
func TestUpdateFasterThanRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	time := func(f func()) (best float64) {
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					f()
				}
			})
			if s := r.T.Seconds() / float64(r.N); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	for _, c := range []struct {
		deltaEdges int
		factor     float64
	}{{4, 5}, {2048, 1}} {
		n, touched, before := appendedBenchNetwork(t, c.deltaEdges)
		update := time(func() { before.Update(n, touched) })
		rebuild := time(func() { pattern.Precompute(n, true) })
		t.Logf("%d-edge delta (%d touched vertices): update %.3fms, rebuild %.3fms (%.1fx)",
			c.deltaEdges, len(touched), update*1e3, rebuild*1e3, rebuild/update)
		if rebuild < update*c.factor {
			t.Errorf("table update (%.3fms) is not >=%gx faster than rebuild (%.3fms) on a %d-edge delta",
				update*1e3, c.factor, rebuild*1e3, c.deltaEdges)
		}
	}
}

// BenchmarkAppendBesideCache measures what the response cache costs an
// ingest: Shard.Append of 32 on a served network whose 4 096-entry cache is
// full against one whose cache is empty. The store's change notification
// stamps the touched vertices and returns — nothing walks the cache and no
// goroutine is started — so the two must cost the same (a fold every 128
// appends included, on both sides).
func BenchmarkAppendBesideCache(b *testing.B) {
	const entries = 4096
	for _, c := range []struct {
		name string
		fill int
	}{{"full", entries}, {"empty", 0}} {
		b.Run(c.name, func(b *testing.B) {
			n := datagen.Bitcoin(datagen.Config{Vertices: 5000, Seed: 11})
			next := uniformBatches(n, 0, 1)
			s := server.New(server.Config{CacheSize: entries})
			if err := s.AddNetwork("bench", n); err != nil {
				b.Fatal(err)
			}
			// Two-hop seed queries: cheap, and one cache entry per seed.
			for v := 0; v < c.fill; v++ {
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/flow?seed=%d&hops=2", v), nil))
				if w.Code != 200 {
					b.Fatalf("seed %d: status %d (%s)", v, w.Code, w.Body)
				}
			}
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/stats", nil))
			var st server.StatsResult
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Cache.Len != c.fill {
				b.Fatalf("cache holds %d entries (%v), want %d", st.Cache.Len, err, c.fill)
			}
			sh, _ := s.Store().Get("bench")
			goroutines := runtime.NumGoroutine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Append(next(), store.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if left := runtime.NumGoroutine() - goroutines; left > 0 {
				b.Fatalf("%d appends left %d goroutines behind", b.N, left)
			}
		})
	}
}
