package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"flownet"
)

// This file holds the per-layer probes of a traced run: each layer the
// served path is built from, called directly through the root package on
// the workload's own corpus, with fixed operation counts. They put a number
// on every layer for every workload — including layers the workload's own
// traffic never enters, where the prediction for a change is "flat".

// Probe sizes: fixed, so that counts repeat exactly for a seed.
const (
	probeSeeds    = 1000 // seed extractions, and the seed corpus the core probes solve
	probePairs    = 3    // pair extractions (each walks the giant component)
	probeHard     = 25   // hardest-class subgraphs given to raw LP and TEG
	probeAppends  = 5    // 32-interaction appends per append probe
	probeBatchMax = 512  // seeds of the worker-pool speedup probe
)

func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// allocsDuring runs fn and returns the heap allocations it made. The
// benchmark is otherwise idle while probes run, so the count is fn's own.
// It runs on one processor and with the collector off, as
// testing.AllocsPerRun does the first: the library's scratch pools are per
// processor and emptied by a collection, so a goroutine moved to another
// processor, or a collection, makes the next call allocate a whole new
// scratch, and the count would depend on when either happens to fall. Two
// collections first empty every pool, so that the count always includes
// the one scratch fn's first call allocates.
func allocsDuring(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// probeLoad times the binary and mapped ways a corpus enters memory (the
// text load is timed when the run reads its corpus back) and leaves the
// binary snapshot at binPath for later probes to reload.
func probeLoad(m *metrics, n *flownet.Network, binPath string) error {
	if err := flownet.SaveNetworkBinary(binPath, n); err != nil {
		return err
	}
	fi, err := os.Stat(binPath)
	if err != nil {
		return err
	}
	m.layer("tin.bytes_per_interaction", float64(fi.Size())/float64(n.NumInteractions()), "bytes")
	for _, l := range []struct {
		name, unit string
		scale      func(time.Duration) float64
		load       func() (*flownet.Network, error)
	}{
		{"tin.load_binary_s", "s", secs, func() (*flownet.Network, error) { return flownet.LoadNetwork(binPath) }},
		{"tin.load_mmap_ms", "ms", millis, func() (*flownet.Network, error) { return flownet.LoadNetworkMmap(binPath) }},
	} {
		t0 := time.Now()
		if _, err := l.load(); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		m.layer(l.name, l.scale(time.Since(t0)), l.unit)
	}
	return nil
}

// probeExtractAndCore extracts the §6.2 subgraph of probeSeeds uniform
// seeds and runs the paper's methods over that corpus: Greedy, Pre and
// PreSim on all of it, raw LP and TEG on its probeHard hardest members. It
// also checks the paper's equivalences on every subgraph it solves twice.
func probeExtractAndCore(m *metrics, n *flownet.Network, s *opStream) error {
	seeds := make([]flownet.VertexID, probeSeeds)
	for i := range seeds {
		seeds[i] = flownet.VertexID(s.rng.Intn(s.shape.NumV))
	}
	opts := flownet.DefaultExtractOptions()
	var graphs []*flownet.Graph
	t0 := time.Now()
	for _, v := range seeds {
		if g, ok := n.ExtractSubgraph(v, opts); ok {
			graphs = append(graphs, g)
		}
	}
	m.layer("tin.extract_seed_us_per_op", micros(time.Since(t0))/probeSeeds, "us/op")
	// Counted in a second round, with the collector off.
	allocs := allocsDuring(func() {
		for _, v := range seeds {
			n.ExtractSubgraph(v, opts)
		}
	})
	m.layer("tin.extract_seed_allocs_per_op", float64(allocs)/probeSeeds, "count")
	if len(graphs) == 0 {
		return fmt.Errorf("no seed of %d has a returning-path subgraph", probeSeeds)
	}

	sizes := make([]float64, len(graphs))
	for i, g := range graphs {
		sizes[i] = float64(g.NumInteractions())
	}
	sort.Float64s(sizes)
	m.layer("tin.subgraph_interactions_p50", percentile(sizes, 50), "count")
	m.layer("tin.subgraph_interactions_p99", percentile(sizes, 99), "count")

	// PreSim(LP) over the corpus, timed per class.
	var classNs [3]time.Duration
	var classN [3]int
	presim := make([]flownet.Result, len(graphs))
	engined := 0
	for i, g := range graphs {
		t0 := time.Now()
		r, err := flownet.PreSim(g, flownet.EngineLP)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		presim[i] = r
		classNs[r.Class] += d
		classN[r.Class]++
		if r.UsedEngine {
			engined++
		}
	}
	total := classNs[0] + classNs[1] + classNs[2]
	m.layer("core.presim_us_per_subgraph", micros(total)/float64(len(graphs)), "us/op")
	for c, name := range []string{"A", "B", "C"} {
		m.layer("core.class_share."+name, float64(classN[c])/float64(len(graphs)), "ratio")
		if classN[c] > 0 {
			m.extra("core.presim_us_per_subgraph."+name, micros(classNs[c])/float64(classN[c]), "us/op", classN[c])
		}
	}
	m.layer("core.engine_used_share", float64(engined)/float64(len(graphs)), "ratio")

	// Pre(LP) and Greedy over the corpus. Pre must equal PreSim; Greedy is
	// a lower bound, exact on class A.
	t0 = time.Now()
	for i, g := range graphs {
		r, err := flownet.Pre(g, flownet.EngineLP)
		if err != nil {
			return err
		}
		if !closeEnough(r.Flow, presim[i].Flow) {
			m.violate("Pre(LP) = %v but PreSim(LP) = %v on probe subgraph %d", r.Flow, presim[i].Flow, i)
		}
	}
	m.layer("core.pre_us_per_subgraph", micros(time.Since(t0))/float64(len(graphs)), "us/op")
	t0 = time.Now()
	for i, g := range graphs {
		f := flownet.Greedy(g)
		if f > presim[i].Flow*(1+relTol) || (presim[i].Class == flownet.ClassA && !closeEnough(f, presim[i].Flow)) {
			m.violate("Greedy = %v against maximum flow %v (class %v) on probe subgraph %d", f, presim[i].Flow, presim[i].Class, i)
		}
	}
	m.layer("core.greedy_us_per_subgraph", micros(time.Since(t0))/float64(len(graphs)), "us/op")

	// Raw LP, TEG and PreSim(TEG) on the hardest subgraphs: class C first,
	// in corpus order. All three must equal PreSim(LP).
	var hard []int
	for _, want := range []flownet.Class{flownet.ClassC, flownet.ClassB, flownet.ClassA} {
		for i := range graphs {
			if presim[i].Class == want && len(hard) < probeHard {
				hard = append(hard, i)
			}
		}
	}
	var lp, teg time.Duration
	for _, i := range hard {
		t0 := time.Now()
		f, err := flownet.MaxFlowLP(graphs[i])
		lp += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		ft := flownet.MaxFlowTEG(graphs[i])
		teg += time.Since(t0)
		rt, err := flownet.PreSim(graphs[i], flownet.EngineTEG)
		if err != nil {
			return err
		}
		for name, got := range map[string]float64{"LP": f, "TEG": ft, "PreSim(TEG)": rt.Flow} {
			if !closeEnough(got, presim[i].Flow) {
				m.violate("%s = %v but PreSim(LP) = %v on probe subgraph %d", name, got, presim[i].Flow, i)
			}
		}
	}
	m.layer("lp.raw_ms_per_subgraph", millis(lp)/float64(len(hard)), "ms/op")
	m.layer("teg.maxflow_ms_per_op", millis(teg)/float64(len(hard)), "ms/op")

	// Worker-pool speedup of the batch API on the same seeds.
	batch := seeds[:min(len(seeds), probeBatchMax)]
	var wall [2]time.Duration
	for i, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t0 := time.Now()
		if _, err := flownet.BatchFlowSeeds(n, batch, opts, flownet.BatchOptions{Workers: workers}); err != nil {
			return err
		}
		wall[i] = time.Since(t0)
	}
	m.layer("par.speedup_batch", float64(wall[0])/float64(wall[1]), "ratio")
	return nil
}

// probePairs times pair extraction alone: the forward and backward
// reachability walks and the assembly of the flow graph.
func probePairExtract(m *metrics, n *flownet.Network, s *opStream) {
	var d time.Duration
	for i := 0; i < probePairs; i++ {
		o := s.pairOp()
		t0 := time.Now()
		n.FlowSubgraphBetween(flownet.VertexID(o.V), flownet.VertexID(o.W))
		d += time.Since(t0)
	}
	m.layer("tin.extract_pair_ms_per_op", millis(d)/probePairs, "ms/op")
}

// probePatterns times Precompute and the GB and PB searches of P2 and P3,
// and checks that both modes find the same instances and flow.
func probePatterns(m *metrics, n *flownet.Network) error {
	t0 := time.Now()
	tables := flownet.Precompute(n, true)
	m.layer("pattern.precompute_s", secs(time.Since(t0)), "s")
	opts := flownet.PatternOptions{Workers: runtime.GOMAXPROCS(0)}
	var gb, pb time.Duration
	for _, p := range []*flownet.Pattern{flownet.P2, flownet.P3} {
		t0 := time.Now()
		g, err := flownet.SearchGB(n, p, opts)
		dg := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		b, err := flownet.SearchPB(n, tables, p, opts)
		db := time.Since(t0)
		if err != nil {
			return err
		}
		if g.Instances != b.Instances || !closeEnough(g.TotalFlow, b.TotalFlow) {
			m.violate("%s: GB found %d instances with flow %v, PB %d with %v", p.Name, g.Instances, g.TotalFlow, b.Instances, b.TotalFlow)
		}
		gb, pb = gb+dg, pb+db
		m.extra("pattern.gb_ms."+p.Name, millis(dg), "ms", int(g.Instances))
		m.extra("pattern.pb_ms."+p.Name, millis(db), "ms", int(b.Instances))
	}
	m.layer("pattern.gb_ms", millis(gb), "ms")
	m.layer("pattern.pb_ms", millis(pb), "ms")
	return nil
}

// probeAppend times one 32-interaction append at each of the three layers
// of the write path — the network itself, the live network around it, the
// durable shard around that — each on its own copy of the corpus, and then
// a recovery of the shard from its directory.
func probeAppend(m *metrics, binPath, dir string, s *opStream) error {
	load := func() (*flownet.Network, error) { return flownet.LoadNetwork(binPath) }
	items := func() []flownet.BatchItem { return batchItems(s.ingestOp().Items) }
	timeAppends := func(name string, app func([]flownet.BatchItem) error) error {
		// Every append allocates a whole new arena; start each series from
		// a collected heap so that none pays for its predecessor's garbage.
		runtime.GC()
		ds := make([]float64, probeAppends)
		for i := range ds {
			batch := items()
			t0 := time.Now()
			if err := app(batch); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ds[i] = millis(time.Since(t0))
		}
		m.layer(name, median(ds), "ms")
		return nil
	}

	n, err := load()
	if err != nil {
		return err
	}
	if err := timeAppends("tin.append32_ms", func(b []flownet.BatchItem) error { _, err := n.AppendBatch(b); return err }); err != nil {
		return err
	}

	if n, err = load(); err != nil {
		return err
	}
	live, err := flownet.NewLiveNetwork(n)
	if err != nil {
		return err
	}
	if err := timeAppends("stream.append32_ms", func(b []flownet.BatchItem) error {
		_, err := live.Append(b, flownet.StreamOptions{})
		return err
	}); err != nil {
		return err
	}

	if n, err = load(); err != nil {
		return err
	}
	cfg := flownet.StoreConfig{Dir: dir, SnapshotEvery: -1}
	st, err := flownet.OpenStore(cfg)
	if err != nil {
		return err
	}
	sh, err := st.Add(netName, n)
	if err != nil {
		st.Close()
		return err
	}
	err = timeAppends("store.append32_ms", func(b []flownet.BatchItem) error {
		_, err := sh.Append(b, flownet.StreamOptions{})
		return err
	})
	want := sh.NetStats().Interactions
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	wal, _ := filepath.Glob(filepath.Join(dir, netName, "wal-*"))
	var walBytes int64
	for _, f := range wal {
		if fi, err := os.Stat(f); err == nil {
			walBytes += fi.Size()
		}
	}
	m.layer("store.wal_bytes_per_interaction", float64(walBytes)/float64(probeAppends*ingestBatch), "bytes")

	// Recovery: the snapshot Add wrote plus the WAL records appended since.
	t0 := time.Now()
	st, err = flownet.OpenStore(cfg)
	if err != nil {
		return err
	}
	m.layer("store.recovery_s", secs(time.Since(t0)), "s")
	defer st.Close()
	sh, ok := st.Get(netName)
	if !ok {
		return fmt.Errorf("store probe: %q not recovered", netName)
	}
	if got := sh.NetStats().Interactions; got != want {
		m.violate("store probe: %d interactions after recovery, %d acknowledged before", got, want)
	}
	return nil
}
