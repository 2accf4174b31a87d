package tin

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// mmapExpected reports whether OpenNetworkMmap should actually map on this
// platform (otherwise it transparently falls back to a copying load and
// the lifecycle assertions below are vacuous).
func mmapExpected() bool { return mmapSupported && hostLE }

func saveTinb(t *testing.T, n *Network) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.tinb")
	if err := SaveNetworkBinary(path, n); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapRoundTrip: a mapped snapshot must be indistinguishable from a
// decoded one — same edges, sequences, ords, adjacency, MaxTime.
func TestMmapRoundTrip(t *testing.T) {
	n := ioTestNetwork()
	path := saveTinb(t, n)
	m, err := OpenNetworkMmap(path)
	if err != nil {
		t.Fatalf("OpenNetworkMmap: %v", err)
	}
	defer m.Unmap()
	if got, want := m.MmapBacked(), mmapExpected(); got != want {
		t.Fatalf("MmapBacked() = %v, want %v", got, want)
	}
	sameNetwork(t, n, m)
	if m.MaxTime() != n.MaxTime() {
		t.Fatalf("MaxTime = %v, want %v", m.MaxTime(), n.MaxTime())
	}
}

// TestMmapAdviseRandom: the MADV_RANDOM every mapped arena gets is pure
// advice — the mapping must serve the identical network, on every platform
// (including those where the advice is a stub).
func TestMmapAdviseRandom(t *testing.T) {
	n := ioTestNetwork()
	path := saveTinb(t, n)
	m, err := OpenNetworkMmap(path)
	if err != nil {
		t.Fatalf("OpenNetworkMmap: %v", err)
	}
	defer m.Unmap()
	if got, want := m.MmapBacked(), mmapExpected(); got != want {
		t.Fatalf("MmapBacked() = %v, want %v", got, want)
	}
	sameNetwork(t, n, m)
	// Advising a degenerate range must be a no-op, not a crash.
	if err := adviseRandom(nil, 0, 0); err != nil {
		t.Fatalf("adviseRandom on empty range: %v", err)
	}
	if err := adviseRandom(make([]byte, 8), 16, 4); err != nil {
		t.Fatalf("adviseRandom past the mapping: %v", err)
	}
}

// TestMmapSurvivesUnlink: the mapping must outlive the file name — snapshot
// rotation unlinks old snapshots while readers may still hold them.
func TestMmapSurvivesUnlink(t *testing.T) {
	if !mmapExpected() {
		t.Skip("no mmap on this platform")
	}
	n := ioTestNetwork()
	path := saveTinb(t, n)
	m, err := OpenNetworkMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, n, m)
}

// TestMmapAppendKeepsBaseMapped: an append derives a version over the same
// mapped base — nothing is copied to the heap, nothing is written through
// the mapping — and every answer equals the heap network's.
func TestMmapAppendKeepsBaseMapped(t *testing.T) {
	n := ioTestNetwork()
	path := saveTinb(t, n)
	m, err := OpenNetworkMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	mapped := m.MmapBacked()
	last := m.MaxTime()
	v := withBatch(t, m, BatchItem{From: 0, To: 1, Time: last + 1, Qty: 7})
	if m.MmapBacked() != mapped || v.MmapBacked() != mapped {
		t.Fatal("an append released the mapped base")
	}
	if v.NumInteractions() != n.NumInteractions()+1 {
		t.Fatalf("%d interactions after append, want %d", v.NumInteractions(), n.NumInteractions()+1)
	}
	e, ok := v.HasEdge(0, 1)
	if !ok {
		t.Fatal("edge 0->1 missing after the append")
	}
	seq := v.Edge(e).Seq
	got := seq[len(seq)-1]
	if got.Time != last+1 || got.Qty != 7 {
		t.Fatalf("appended interaction = %+v, want time %g qty 7", got, last+1)
	}
	// A new edge as well, so adjacency and the pair index grow a tail too.
	v = withBatch(t, v, BatchItem{From: 4, To: 0, Time: last + 2, Qty: 3})
	want := withBatch(t, n, BatchItem{From: 0, To: 1, Time: last + 1, Qty: 7}, BatchItem{From: 4, To: 0, Time: last + 2, Qty: 3})
	sameNetwork(t, want, v)
}

// TestMmapMergeYieldsHeapVersion: an out-of-order merge is the heaviest
// mutation path: it folds onto a heap base and re-ranks there. The derived
// version leaves the mapped one readable.
func TestMmapMergeYieldsHeapVersion(t *testing.T) {
	n := ioTestNetwork()
	m, err := OpenNetworkMmap(saveTinb(t, n))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	mapped := m.MmapBacked()
	late := []BatchItem{{From: 3, To: 1, Time: 0.5, Qty: 2}}
	merged, _, err := m.WithMerged(late)
	if err != nil {
		t.Fatalf("WithMerged: %v", err)
	}
	if merged.MmapBacked() {
		t.Fatal("merged version is still mmap-backed")
	}
	if m.MmapBacked() != mapped {
		t.Fatal("deriving a merged version released the mapping under its parent")
	}
	sameNetwork(t, n, m) // the parent is untouched and still readable
	want, _, err := n.WithMerged(late)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, want, merged)
}

// TestMmapFoldLeavesNothingMapped: a fold of a mapped base must copy every
// array — the pair index too, also when the tail opened no edge to merge
// into it — because the mapping does not outlive the versions over it.
func TestMmapFoldLeavesNothingMapped(t *testing.T) {
	n := ioTestNetwork()
	m, err := OpenNetworkMmap(saveTinb(t, n))
	if err != nil {
		t.Fatal(err)
	}
	last := m.MaxTime()
	grown, _, _, err := m.WithBatch([]BatchItem{{From: 0, To: 1, Time: last + 1, Qty: 7}})
	if err != nil {
		t.Fatal(err)
	}
	folded := grown.Folded()
	if folded.MmapBacked() {
		t.Fatal("folded version is mmap-backed")
	}
	m.Unmap() // takes grown's base with it; folded must not notice
	sameNetwork(t, withBatch(t, n, BatchItem{From: 0, To: 1, Time: last + 1, Qty: 7}), folded)
	checkExtractEquivalence(t, folded)
}

// TestMmapGrowKeepsMapping: growing the vertex space derives a version
// with more vertices over the same base; everything stays mapped.
func TestMmapGrowKeepsMapping(t *testing.T) {
	if !mmapExpected() {
		t.Skip("no mmap on this platform")
	}
	n := ioTestNetwork()
	m, err := OpenNetworkMmap(saveTinb(t, n))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	g := m.WithVertices(12)
	if !g.MmapBacked() {
		t.Fatal("grow released the mapping; only interaction mutations should")
	}
	if g.NumVertices() != 12 {
		t.Fatalf("NumVertices = %d, want 12", g.NumVertices())
	}
	if len(g.OutEdges(11)) != 0 || len(g.InEdges(11)) != 0 {
		t.Fatal("new vertex has adjacency")
	}
	sameNetwork(t, n.WithVertices(12), g)
}

// TestMmapFallbacks: inputs the zero-copy path cannot serve — gzip names,
// text files — must load through the regular decoder.
func TestMmapFallbacks(t *testing.T) {
	n := ioTestNetwork()
	dir := t.TempDir()

	gz := filepath.Join(dir, "net.tinb.gz")
	if err := SaveNetworkBinary(gz, n); err != nil {
		t.Fatal(err)
	}
	txt := filepath.Join(dir, "net.txt")
	if err := SaveNetwork(txt, n); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{gz, txt} {
		m, err := OpenNetworkMmap(path)
		if err != nil {
			t.Fatalf("OpenNetworkMmap(%s): %v", filepath.Base(path), err)
		}
		if m.MmapBacked() {
			t.Fatalf("%s claims to be mmap-backed", filepath.Base(path))
		}
		sameNetwork(t, n, m)
	}
}

// TestMmapRejectsCorrupt: a mapped image that fails validation must error
// out, not serve garbage or panic — and must not leak the mapping. The
// in-range cases are the ones only a check against the edge table
// refuses.
func TestMmapRejectsCorrupt(t *testing.T) {
	if !mmapExpected() {
		t.Skip("no mmap on this platform")
	}
	n := ioTestNetwork()
	l := layoutV2(int64(n.NumVertices()), int64(n.NumEdges()), int64(n.NumInteractions()))
	for name, data := range map[string][]byte{
		"adjacency out of range": corruptBinary(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[l.outAdj:], 0x7fffffff)
			return b
		}),
		"adjacency swap": corruptBinary(t, swapOutAdj),
		"pair id elsewhere": corruptBinary(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[l.pairIDs:], 1)
			return b
		}),
		"hostile header": hostileHeader(),
	} {
		path := filepath.Join(t.TempDir(), "net.tinb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenNetworkMmap(path); err == nil {
			m.Unmap()
			t.Errorf("%s: corrupt image mapped without error", name)
		}
	}
}

// TestMmapUnmapIdempotent: Unmap on an unmapped (or never-mapped) network
// is a no-op, and double-Unmap is safe.
func TestMmapUnmapIdempotent(t *testing.T) {
	n := ioTestNetwork()
	n.Unmap()
	m, err := OpenNetworkMmap(saveTinb(t, n))
	if err != nil {
		t.Fatal(err)
	}
	m.Unmap()
	m.Unmap()
	if m.MmapBacked() {
		t.Fatal("MmapBacked after Unmap")
	}
}
