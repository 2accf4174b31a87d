package bench

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"flownet/internal/datagen"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// The load/replay benchmark corpus: one Bitcoin-shaped network, built once
// per test binary. ~5k vertices keeps a single -benchtime 1x pass (the CI
// step that runs every benchmark once) in seconds while still being
// parse-dominated on the text path.
var (
	loadNetOnce sync.Once
	loadNet     *tin.Network
)

func loadBenchNetwork(tb testing.TB) *tin.Network {
	tb.Helper()
	loadNetOnce.Do(func() {
		loadNet = datagen.Bitcoin(datagen.Config{Vertices: 5000, Seed: 11})
	})
	return loadNet
}

// BenchmarkLoadText / BenchmarkLoadBinary measure loading the same network
// through the two codecs behind tin.LoadNetwork — the number the store's
// binary snapshots exist to improve. interactions/op makes runs on
// different corpora comparable.
func BenchmarkLoadText(b *testing.B)   { benchLoad(b, "net.txt") }
func BenchmarkLoadBinary(b *testing.B) { benchLoad(b, "net.tinb") }

func benchLoad(b *testing.B, name string) {
	n := loadBenchNetwork(b)
	path := filepath.Join(b.TempDir(), name)
	var err error
	if filepath.Ext(name) == ".tinb" {
		err = tin.SaveNetworkBinary(path, n)
	} else {
		err = tin.SaveNetwork(path, n)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := tin.LoadNetwork(path)
		if err != nil {
			b.Fatal(err)
		}
		if m.NumInteractions() != n.NumInteractions() {
			b.Fatalf("loaded %d interactions, want %d", m.NumInteractions(), n.NumInteractions())
		}
	}
	b.ReportMetric(float64(n.NumInteractions()), "interactions/op")
}

// BenchmarkWALReplay measures store recovery from a WAL-only state (no
// snapshot): every batch ever acknowledged is replayed on Open. This is
// the worst-case restart cost that -snapshot-every bounds.
func BenchmarkWALReplay(b *testing.B) {
	const (
		batches   = 512
		batchSize = 64
	)
	dir := b.TempDir()
	st, err := store.Open(store.Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	sh, err := st.Create("bench", 1024)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]store.Item, batchSize)
	for i := 0; i < batches; i++ {
		for j := range items {
			items[j] = store.Item{
				From: int32((i + j) % 1024),
				To:   int32((i + j + 1) % 1024),
				Time: float64(i*batchSize + j),
				Qty:  1,
			}
		}
		if _, err := sh.Append(items, store.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	wantGen := sh.Generation()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(store.Config{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		sh, ok := st.Get("bench")
		if !ok || sh.Generation() != wantGen {
			b.Fatalf("recovered generation %d, want %d", sh.Generation(), wantGen)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batches, "records/op")
}

// TestLoadBinaryFasterThanText is the acceptance check behind the snapshot
// codec: on the bench corpus, the binary load must beat the text parser.
// Benchmarks do not fail builds; this test pins the property (with a
// generous margin — binary is typically several times faster).
func TestLoadBinaryFasterThanText(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := datagen.Bitcoin(datagen.Config{Vertices: 3000, Seed: 11})
	dir := t.TempDir()
	textPath := filepath.Join(dir, "net.txt")
	binPath := filepath.Join(dir, "net.tinb")
	if err := tin.SaveNetwork(textPath, n); err != nil {
		t.Fatal(err)
	}
	if err := tin.SaveNetworkBinary(binPath, n); err != nil {
		t.Fatal(err)
	}
	time := func(path string) (best float64) {
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := tin.LoadNetwork(path); err != nil {
						b.Fatal(err)
					}
				}
			})
			if s := r.T.Seconds() / float64(r.N); best == 0 || s < best {
				best = s
			}
		}
		return best
	}
	text, bin := time(textPath), time(binPath)
	t.Logf("text %.2fms, binary %.2fms (%.1fx)", text*1e3, bin*1e3, text/bin)
	if bin >= text {
		t.Errorf("binary load (%v) not faster than text load (%v)", bin, text)
	}
}

// TestReadNetworkAllocationBudget bounds what the text reader allocates per
// interaction on a Bitcoin-shaped corpus of about 100 K interactions, read
// from memory: the builder's log, the arena and the CSR arrays, and no
// garbage per line. Measured (linux/amd64, Go 1.24): 65 B per interaction,
// a sixth of it the scanner's 1 MiB line buffer; the reader that buffered
// every line and built jagged per-edge sequences before laying the arena
// out allocated 350 B.
func TestReadNetworkAllocationBudget(t *testing.T) {
	const budget = 100 // bytes per interaction
	var text bytes.Buffer
	if err := tin.WriteNetwork(&text, datagen.Bitcoin(datagen.Config{Vertices: 1100, Seed: 11})); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := tin.ReadNetwork(bytes.NewReader(text.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perIA := float64(after.TotalAlloc-before.TotalAlloc) / float64(n.NumInteractions())
	t.Logf("ReadNetwork: %d interactions, %.0f B allocated per interaction", n.NumInteractions(), perIA)
	if perIA > budget {
		t.Errorf("ReadNetwork allocates %.0f B per interaction, budget %d", perIA, budget)
	}
}
