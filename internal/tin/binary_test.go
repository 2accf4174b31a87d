package tin

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestBinaryRoundTrip checks that the binary codec preserves the network
// exactly — canonical order, tie-breaks and all — through an in-memory
// write/read cycle.
func TestBinaryRoundTrip(t *testing.T) {
	n := ioTestNetwork()
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	m, err := ReadNetworkBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, n, m)
	if m.MaxTime() != n.MaxTime() {
		t.Fatalf("MaxTime after binary load = %v, want %v", m.MaxTime(), n.MaxTime())
	}
}

// TestBinaryRoundTripEmpty covers a network with vertices but no
// interactions — the shape of a freshly created ingest-ready network.
func TestBinaryRoundTripEmpty(t *testing.T) {
	n := NewBuilder(7).Finalize()
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	m, err := ReadNetworkBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 7 || m.NumInteractions() != 0 {
		t.Fatalf("empty round trip: %+v", m.Stats())
	}
	if !math.IsInf(m.MaxTime(), -1) {
		t.Fatalf("MaxTime of empty network = %v, want -inf", m.MaxTime())
	}
}

// TestLoadNetworkSniffsBinary checks that LoadNetwork transparently loads
// binary files — plain and gzip-compressed — alongside text files.
func TestLoadNetworkSniffsBinary(t *testing.T) {
	n := ioTestNetwork()
	dir := t.TempDir()

	bin := filepath.Join(dir, "net.tinb")
	if err := SaveNetworkBinary(bin, n); err != nil {
		t.Fatal(err)
	}
	m, err := LoadNetwork(bin)
	if err != nil {
		t.Fatalf("LoadNetwork(binary): %v", err)
	}
	sameNetwork(t, n, m)

	// Gzip-compressed binary under a .gz name.
	var raw bytes.Buffer
	if err := WriteNetworkBinary(&raw, n); err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "net.tinb.gz")
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	zw.Write(raw.Bytes())
	zw.Close()
	if err := os.WriteFile(gzPath, gzBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = LoadNetwork(gzPath)
	if err != nil {
		t.Fatalf("LoadNetwork(binary .gz): %v", err)
	}
	sameNetwork(t, n, m)

	// A text file still loads through the text parser.
	txt := filepath.Join(dir, "net.txt")
	if err := SaveNetwork(txt, n); err != nil {
		t.Fatal(err)
	}
	m, err = LoadNetwork(txt)
	if err != nil {
		t.Fatalf("LoadNetwork(text): %v", err)
	}
	sameNetwork(t, n, m)
}

// TestBinaryAndTextLoadAgree checks that the two codecs produce identical
// networks (including canonical Ords) from the same source.
func TestBinaryAndTextLoadAgree(t *testing.T) {
	n := ioTestNetwork()
	var tb, bb bytes.Buffer
	if err := WriteNetwork(&tb, n); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetworkBinary(&bb, n); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadNetwork(&tb)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadNetworkBinary(&bb)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, fromText, fromBin)
}

// corruptBinary returns a valid binary encoding with mutate applied.
func corruptBinary(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, ioTestNetwork()); err != nil {
		t.Fatal(err)
	}
	return mutate(buf.Bytes())
}

func TestBinaryCorruptInputsError(t *testing.T) {
	putU64 := func(b []byte, off int64, v uint64) []byte {
		binary.LittleEndian.PutUint64(b[off:off+8], v)
		return b
	}
	// ioTestNetwork has 5 vertices, 5 edges and 6 interactions; its v2
	// section offsets pinpoint the fields each case corrupts.
	l := layoutV2(5, 5, 6)
	for name, data := range map[string][]byte{
		"empty":         {},
		"short header":  []byte(binaryMagic),
		"bad magic":     corruptBinary(t, func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":   corruptBinary(t, func(b []byte) []byte { b[4] = 99; return b }),
		"bad rec size":  corruptBinary(t, func(b []byte) []byte { b[6] = 23; return b }),
		"zero vertices": corruptBinary(t, func(b []byte) []byte { return putU64(b, 8, 0) }),
		"huge vertices": corruptBinary(t, func(b []byte) []byte { return putU64(b, 8, 1<<40) }),
		"lying edges":   corruptBinary(t, func(b []byte) []byte { return putU64(b, 16, 1<<30) }),
		"lying count":   corruptBinary(t, func(b []byte) []byte { return putU64(b, 24, 1<<30) }),
		"truncated":     corruptBinary(t, func(b []byte) []byte { return b[:len(b)-7] }),
		"vertex range":  corruptBinary(t, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[l.edgeFrom:], 1<<30); return b }),
		"self loop":     corruptBinary(t, func(b []byte) []byte { copy(b[l.edgeFrom:l.edgeFrom+4], b[l.edgeTo:l.edgeTo+4]); return b }),
		"duplicate edge": corruptBinary(t, func(b []byte) []byte {
			copy(b[l.edgeTo+4:l.edgeTo+8], b[l.edgeTo:l.edgeTo+4])
			copy(b[l.edgeFrom+4:l.edgeFrom+8], b[l.edgeFrom:l.edgeFrom+4])
			return b
		}),
		"seq not cover":  corruptBinary(t, func(b []byte) []byte { return putU64(b, l.seqEnd, 0) }),
		"negative qty":   corruptBinary(t, func(b []byte) []byte { return putU64(b, l.arena+8, math.Float64bits(-1)) }),
		"nan time":       corruptBinary(t, func(b []byte) []byte { return putU64(b, l.arena, math.Float64bits(math.NaN())) }),
		"order violated": corruptBinary(t, func(b []byte) []byte { return putU64(b, l.arena, math.Float64bits(1e9)) }),
		"ord duplicate": corruptBinary(t, func(b []byte) []byte {
			return putU64(b, l.arena+16, binary.LittleEndian.Uint64(b[l.arena+binaryRecordSize+16:]))
		}),
		"ord range":      corruptBinary(t, func(b []byte) []byte { return putU64(b, l.arena+16, 1<<40) }),
		"bad maxtime":    corruptBinary(t, func(b []byte) []byte { return putU64(b, 32, math.Float64bits(12345)) }),
		"hostile header": hostileHeader(),
		// In range but wrong: each still names edges that exist, so only
		// a check against the edge table refuses it.
		"adjacency swap":    corruptBinary(t, swapOutAdj),
		"pair id elsewhere": corruptBinary(t, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[l.pairIDs:], 1); return b }),
	} {
		if _, err := ReadNetworkBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadNetworkBinary accepted corrupt input", name)
		}
	}
}

// hostileHeader is a bare version-2 header whose counts make the section
// offsets overflow an int64: summed the plain way, the file they imply
// has a negative size, which passes any "is the file long enough" check.
func hostileHeader() []byte {
	hdr := make([]byte, binaryHeaderV2)
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion2)
	binary.LittleEndian.PutUint16(hdr[6:8], binaryRecordSize)
	binary.LittleEndian.PutUint64(hdr[8:16], 3158064)
	binary.LittleEndian.PutUint64(hdr[16:24], 3480000000000000000)
	binary.LittleEndian.PutUint64(hdr[24:32], 3990000000000000000)
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(1))
	return hdr
}

// swapOutAdj swaps the first two entries of the out-adjacency section of
// a snapshot whose vertices 0 and 1 have one out-edge each: each vertex
// then lists the other's edge.
func swapOutAdj(b []byte) []byte {
	numV := int64(binary.LittleEndian.Uint64(b[8:16]))
	numE := int64(binary.LittleEndian.Uint64(b[16:24]))
	numIA := int64(binary.LittleEndian.Uint64(b[24:32]))
	off := layoutV2(numV, numE, numIA).outAdj
	x, y := slices.Clone(b[off:off+4]), slices.Clone(b[off+4:off+8])
	copy(b[off:], y)
	copy(b[off+4:], x)
	return b
}

// TestBinaryRejectsV1: a version-1 file (the record-stream format stores
// wrote before the CSR layout) is refused with a message naming the way
// out, not misparsed or reported as generic corruption.
func TestBinaryRejectsV1(t *testing.T) {
	hdr := make([]byte, binaryPrefix+8+8) // the prefix, numV and numE
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion1)
	binary.LittleEndian.PutUint16(hdr[6:8], binaryRecordSize)
	binary.LittleEndian.PutUint64(hdr[8:16], 3)
	binary.LittleEndian.PutUint64(hdr[16:24], 0)
	_, err := ReadNetworkBinary(bytes.NewReader(hdr))
	const want = "version 1 snapshots are no longer supported; reload from the text format"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v1 read: err = %v, want one containing %q", err, want)
	}
}

// TestSwapWordsReadsBigEndian holds the copying reader's byte swap, which
// a big-endian host applies to every section it reads, to encoding/binary:
// words written big-endian and swapped read back little-endian as written.
func TestSwapWordsReadsBigEndian(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{4, 8} {
		var b []byte
		var want []uint64
		for range 100 {
			v := r.Uint64()
			if width == 4 {
				v = uint64(uint32(v))
				b = binary.BigEndian.AppendUint32(b, uint32(v))
			} else {
				b = binary.BigEndian.AppendUint64(b, v)
			}
			want = append(want, v)
		}
		swapWords(b, width)
		for i, v := range want {
			var got uint64
			if width == 4 {
				got = uint64(binary.LittleEndian.Uint32(b[i*width:]))
			} else {
				got = binary.LittleEndian.Uint64(b[i*width:])
			}
			if got != v {
				t.Fatalf("width %d, word %d: %#x after the swap, written %#x", width, i, got, v)
			}
		}
	}
}

// TestBinaryReadSwapsOnBigEndian reads a snapshot the way a big-endian
// host does: with hostLE false, the copying reader swaps each section's
// words by the width of its values. Given a file whose section words are
// stored the other way round, it must load the network that was written.
func TestBinaryReadSwapsOnBigEndian(t *testing.T) {
	n := ioTestNetwork()
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	l := layoutV2(int64(n.NumVertices()), int64(n.NumEdges()), int64(n.NumInteractions()))
	for _, s := range []struct {
		from, to int64
		width    int
	}{
		{l.edgeFrom, l.seqEnd - l.pad1, 4}, // endpoints, offsets and adjacency
		{l.seqEnd, l.pairIDs, 8},
		{l.pairIDs, l.arena - l.pad2, 4},
		{l.arena, l.total, 8},
	} {
		swapWords(b[s.from:s.to], s.width)
	}
	defer func(was bool) { hostLE = was }(hostLE)
	hostLE = false
	m, err := ReadNetworkBinary(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, n, m)
}

// FuzzLoadNetwork fuzzes the full sniffing load path over raw file bytes:
// text, binary and gzip inputs — corrupt, truncated or hostile — must
// either load or error, never panic. Whatever loads must round-trip
// through the binary codec. An uncompressed binary input is also opened
// with OpenNetworkMmap: a file the copying reader accepts, the mapper must
// accept as the same network (sameLoad).
func FuzzLoadNetwork(f *testing.F) {
	f.Add([]byte("0 1 1.5 2.5\n1 2 3 4\n"), false)
	f.Add([]byte("# vertices 10\n0 1 1 1\n"), false)
	f.Add([]byte(""), false)
	f.Add([]byte(binaryMagic), false)
	f.Add([]byte("FNTB garbage that is not a real header"), false)
	var valid bytes.Buffer
	b := NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 5)
	n := b.Finalize()
	if err := WriteNetworkBinary(&valid, n); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), false)
	f.Add(valid.Bytes()[:len(valid.Bytes())-5], false) // torn tail
	f.Add(valid.Bytes(), true)                         // gzip-compressed binary
	f.Add([]byte{0x1f, 0x8b, 0xff, 0x00}, true)        // gzip magic, corrupt stream
	f.Add(hostileHeader(), false)
	cb := NewBuilder(4)
	cb.AddInteraction(0, 1, 1, 1)
	cb.AddInteraction(1, 2, 2, 1)
	cb.AddInteraction(2, 3, 3, 1)
	chain := cb.Finalize()
	var swapped bytes.Buffer
	if err := WriteNetworkBinary(&swapped, chain); err != nil {
		f.Fatal(err)
	}
	f.Add(swapOutAdj(swapped.Bytes()), false) // 0 lists 1->2, 1 lists 0->1

	f.Fuzz(func(t *testing.T, data []byte, gz bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "net.txt")
		raw := data
		if gz {
			path = filepath.Join(dir, "net.gz")
			if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
				// Not pre-compressed fuzz data: compress it so the gzip
				// layer passes and the inner sniffing is exercised.
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				zw.Write(data)
				zw.Close()
				raw = buf.Bytes()
			}
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadNetwork(path)
		if !gz && bytes.HasPrefix(data, []byte(binaryMagic)) {
			mapped, merr := OpenNetworkMmap(path)
			if merr == nil {
				defer mapped.Unmap()
			}
			if err == nil && merr != nil {
				t.Fatalf("the copying reader accepts, the mapper refuses: %v", merr)
			}
			if err == nil {
				sameLoad(t, loaded, mapped)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNetworkBinary(&buf, loaded); err != nil {
			t.Fatalf("WriteNetworkBinary after successful load: %v", err)
		}
		again, err := ReadNetworkBinary(&buf)
		if err != nil {
			t.Fatalf("binary re-read of loaded network: %v", err)
		}
		if again.NumEdges() != loaded.NumEdges() || again.NumInteractions() != loaded.NumInteractions() {
			t.Fatalf("binary round trip changed shape: %+v vs %+v", again.Stats(), loaded.Stats())
		}
	})
}

// sameLoad fails unless a and b are one network to every accessor a
// loader fills: counts, MaxTime, each edge with its id and sequence, the
// pair lookup of every edge and the adjacency of every vertex.
func sameLoad(t *testing.T, a, b *Network) {
	t.Helper()
	if a.Stats() != b.Stats() || math.Float64bits(a.MaxTime()) != math.Float64bits(b.MaxTime()) {
		t.Fatalf("loads differ: %+v max %v vs %+v max %v", a.Stats(), a.MaxTime(), b.Stats(), b.MaxTime())
	}
	for e := range EdgeID(a.NumEdges()) {
		ea, eb := a.Edge(e), b.Edge(e)
		if ea.From != eb.From || ea.To != eb.To || !slices.Equal(ea.Seq, eb.Seq) {
			t.Fatalf("edge %d differs: %d->%d %v vs %d->%d %v", e, ea.From, ea.To, ea.Seq, eb.From, eb.To, eb.Seq)
		}
		for _, n := range []*Network{a, b} {
			if id, ok := n.HasEdge(ea.From, ea.To); !ok || id != e {
				t.Fatalf("HasEdge(%d,%d) = %d,%v, want edge %d", ea.From, ea.To, id, ok, e)
			}
		}
	}
	for v := range VertexID(a.NumVertices()) {
		if !slices.Equal(a.OutEdges(v), b.OutEdges(v)) || !slices.Equal(a.InEdges(v), b.InEdges(v)) {
			t.Fatalf("vertex %d adjacency differs: out %v vs %v, in %v vs %v",
				v, a.OutEdges(v), b.OutEdges(v), a.InEdges(v), b.InEdges(v))
		}
	}
}

// TestAtomicSaveLeavesTargetIntact is the crash-safety regression: a save
// whose writer fails mid-way must leave the previous file byte-identical
// and must not litter the directory with temporaries.
func TestAtomicSaveLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	n := ioTestNetwork()
	if err := SaveNetwork(path, n); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Inject a writer that fails after a partial write — the stand-in for
	// a crash (or disk-full) in the middle of a save.
	boom := os.ErrClosed
	err = atomicSave(path, func(f fileWriter) error {
		f.Write([]byte("torn partial conte"))
		f.Close()
		return boom
	})
	if err != boom {
		t.Fatalf("atomicSave error = %v, want the injected failure", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save modified the target:\nbefore %q\nafter  %q", before, after)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file %q left behind", e.Name())
		}
	}
	// And the reloaded network is still the original.
	m, err := LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, n, m)
}
