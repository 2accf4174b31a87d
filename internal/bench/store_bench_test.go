package bench

import (
	"bytes"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

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
// Benchmarks do not fail builds; this test pins the property. With each
// section read straight into its slice, a shared 2-vCPU Xeon VM logs
// 2.7–3.5× (text 25–29 ms, binary 7–11 ms); decoding value by value into
// slices grown by append, the binary load took 23–25 ms and the margin
// was 1.3–1.5×.
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
// from memory: the builder's log and pair table, the arena and the CSR
// arrays, and no garbage per line. Measured (linux/amd64, Go 1.24): 69–71
// B per interaction at GOMAXPROCS(2), a sixth of it the scanner's 1 MiB
// buffer, where each block's parsed records become a chunk of the log;
// 71–77 B when they were copied into chunks of the log's own (at most
// 2×GOMAXPROCS blocks in flight), 71–76 B with a map for the pair table,
// 65 B before the reader parsed in parallel. The reader that buffered
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

// TestReadNetworkUsesTwoCores guards the parallel text reader: on the bench
// corpus, read from memory, a load at GOMAXPROCS(2) must be at least 1.3×
// as fast as one at GOMAXPROCS(1), best of three each. The parsing and
// Finalize's scatter run on every core; feeding the builder stays on one.
// Measured on a shared 2-vCPU Xeon VM: 41–58 ms at GOMAXPROCS(1) and
// 30–31 ms at GOMAXPROCS(2), 1.4–1.9×, with each line read in one pass and
// the parsed records kept as chunks of the builder's log; 77–93 and
// 48–55 ms, 1.6–1.8×, splitting each line and then reading each field
// again, the records copied into the log; 128 and 76 ms, 1.7×, with a map
// for the builder's pair table and Finalize on one core. While the host
// withholds the second core, both read 0.8–1.2×.
func TestReadNetworkUsesTwoCores(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	var text bytes.Buffer
	if err := tin.WriteNetwork(&text, loadBenchNetwork(t)); err != nil {
		t.Fatal(err)
	}
	// The collector is off while a load is timed: at GOMAXPROCS(2) a
	// collection takes a whole processor for its marking, at GOMAXPROCS(1)
	// a quarter of one, and how many collections a load meets depends on
	// what earlier tests left on the heap.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	load := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		runtime.GC()
		start := time.Now()
		if _, err := tin.ReadNetwork(bytes.NewReader(text.Bytes())); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// The loads alternate, so that a spell of load on a shared host slows
	// both sides. Such a host can also take the second core away for
	// seconds, so a measurement that misses the bound is taken again, up to
	// five times: a reader that parses on one core never reaches it.
	const attempts = 5
	for attempt := 1; ; attempt++ {
		one, two := load(1), load(2)
		for range 2 {
			one, two = min(one, load(1)), min(two, load(2))
		}
		t.Logf("ReadNetwork, %d bytes: %v at GOMAXPROCS(1), %v at GOMAXPROCS(2) (%.2fx)",
			text.Len(), one, two, float64(one)/float64(two))
		if float64(one) >= 1.3*float64(two) {
			return
		}
		if attempt == attempts {
			t.Fatalf("ReadNetwork at GOMAXPROCS(2) is under 1.3x as fast as at GOMAXPROCS(1) in %d measurements", attempts)
		}
	}
}
