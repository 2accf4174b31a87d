package bench

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// The guards' bench corpus: one Bitcoin-shaped network of ~5k vertices,
// built once per test binary.
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
					m, err := tin.LoadNetwork(path)
					if err != nil {
						b.Fatal(err)
					}
					if m.NumInteractions() != n.NumInteractions() {
						b.Fatal("short load")
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
