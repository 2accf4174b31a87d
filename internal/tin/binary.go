package tin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Binary network codec. The text format (io.go) is the interchange format;
// this is the storage format: the durable store (internal/store) writes
// network snapshots with it because parsing text — strconv on every field,
// plus the full canonical re-rank in Finalize — dominates large-network
// load times.
//
// The format (version 2, written by WriteNetworkBinary) is a byte-for-byte
// image of the finalized CSR layout (csr.go). After a 40-byte header the
// file carries the flat arrays themselves, 8-byte aligned where their
// element type needs it:
//
//	magic      [4]byte  "FNTB"
//	version    uint16   2
//	recordSize uint16   24 (sizeof Interaction; readers reject other widths)
//	numV       uint64
//	numE       uint64
//	numIA      uint64
//	maxTime    float64
//	edgeFrom   [numE]int32        edge table endpoints
//	edgeTo     [numE]int32
//	outOff     [numV+1]int32      CSR adjacency
//	inOff      [numV+1]int32
//	outAdj     [numE]int32
//	inAdj      [numE]int32
//	           pad to 8
//	seqEnd     [numE]int64        exclusive end of edge e's arena run
//	pairKeys   [numE]int64        sorted (from<<32|to) lookup index
//	pairIDs    [numE]int32
//	           pad to 8
//	arena      [numIA]{ time f64, qty f64, ord i64 }  edge-grouped sequences
//
// Because the sections are exactly the in-memory arrays, an mmap of the
// file serves the network zero-copy (mmap.go): load is a header check plus
// O(V+E) validation, never an O(numIA) decode. Both loaders fill one image
// and accept it through one header decode and one structural check, so a
// file has one meaning whichever loads it; the copying reader
// (ReadNetworkBinary) also proves the arena in canonical order. Corrupt
// bytes of any kind yield an error, never a panic. Version 1 (a
// canonical-order record stream, last written before the CSR layout
// existed) is recognized only to be rejected with a message that says how
// to recover.
//
// LoadNetwork sniffs the magic, so binary and text files coexist behind one
// loader — including gzip-compressed binary files under ".gz" names.

const (
	binaryMagic      = "FNTB"
	binaryVersion1   = 1
	binaryVersion2   = 2
	binaryRecordSize = 24
	// binaryPrefix covers magic, version and recordSize: what tells the
	// versions apart.
	binaryPrefix   = 4 + 2 + 2
	binaryHeaderV2 = binaryPrefix + 8 + 8 + 8 + 8
)

// MaxVertices is the vertex count ceiling shared by every layer that
// allocates adjacency arrays from untrusted sizes: the binary reader (a
// corrupt or hostile header must not demand an unbounded allocation), the
// store's Create/Add and WAL recovery, and the server's POST /networks.
// One constant keeps the write and recovery paths in lock-step — a
// network any layer accepts is a network every layer can load back.
const MaxVertices = 1 << 24

// v2Layout holds the byte offsets of every section of a version-2 file,
// derived purely from the header counts — writer, copying reader and mmap
// loader all agree on it by construction.
type v2Layout struct {
	edgeFrom, edgeTo  int64
	outOff, inOff     int64
	outAdj, inAdj     int64
	pad1              int64 // bytes of padding before seqEnd
	seqEnd, pairKeys  int64
	pairIDs           int64
	pad2              int64 // bytes of padding before arena
	arena             int64
	total             int64
	numV, numE, numIA int64
}

func pad8(off int64) int64 { return (8 - off%8) % 8 }

func layoutV2(numV, numE, numIA int64) v2Layout {
	var l v2Layout
	l.numV, l.numE, l.numIA = numV, numE, numIA
	off := int64(binaryHeaderV2)
	l.edgeFrom = off
	off += numE * 4
	l.edgeTo = off
	off += numE * 4
	l.outOff = off
	off += (numV + 1) * 4
	l.inOff = off
	off += (numV + 1) * 4
	l.outAdj = off
	off += numE * 4
	l.inAdj = off
	off += numE * 4
	l.pad1 = pad8(off)
	off += l.pad1
	l.seqEnd = off
	off += numE * 8
	l.pairKeys = off
	off += numE * 8
	l.pairIDs = off
	off += numE * 4
	l.pad2 = pad8(off)
	off += l.pad2
	l.arena = off
	off += numIA * binaryRecordSize
	l.total = off
	return l
}

// maxInteractions bounds a header's interaction count so that no section
// offset layoutV2 derives can overflow: with at most MaxVertices vertices
// and an EdgeID's range of edges, every section but the arena fits in
// 2^37 bytes, and the arena in half of what an int64 holds.
const maxInteractions = math.MaxInt64 / (2 * binaryRecordSize)

// image is a version-2 snapshot in memory: the header and the ten
// sections. The copying reader fills it off a stream, the mapper by
// aliasing the mapped file (mmap.go); both accept it only through
// decodeHeader and check, so a file loads as one network either way.
type image struct {
	numV, numE, numIA int64
	maxTime           float64
	edgeFrom, edgeTo  []int32
	outOff, inOff     []int32
	outAdj, inAdj     []EdgeID
	seqEnd, pairKeys  []int64
	pairIDs           []EdgeID
	arena             []Interaction
}

// le is the little-endian encoding of one section element type, as the
// writer appends it.
type le[T any] struct {
	size int
	put  func([]byte, T) []byte
}

var (
	leI32    = le[int32]{4, func(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }}
	leI64    = le[int64]{8, func(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }}
	leRecord = le[Interaction]{binaryRecordSize, func(b []byte, ia Interaction) []byte {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ia.Time))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ia.Qty))
		return binary.LittleEndian.AppendUint64(b, uint64(ia.Ord))
	}}
)

// The on-disk record is Interaction's memory image — time, qty and ord,
// 8 bytes each, in that order, no padding — so both loaders take the
// arena's bytes as they are. These fail to compile otherwise.
var (
	_ [unsafe.Sizeof(Interaction{}) - binaryRecordSize]struct{}
	_ [binaryRecordSize - unsafe.Sizeof(Interaction{})]struct{}
	_ [unsafe.Offsetof(Interaction{}.Qty) - 8]struct{}
	_ [8 - unsafe.Offsetof(Interaction{}.Qty)]struct{}
	_ [unsafe.Offsetof(Interaction{}.Ord) - 16]struct{}
	_ [16 - unsafe.Offsetof(Interaction{}.Ord)]struct{}
)

// WriteNetworkBinary writes the network to w in the version-2 binary
// snapshot format. The written file is exactly the CSR memory image of the
// network's fold, so saving a network and mmap'ing the file back
// reproduces it bit for bit.
func WriteNetworkBinary(w io.Writer, n *Network) error {
	// A version with a tail is written as its fold: the file is the image
	// of one base, whatever the network was derived through.
	n = n.Folded()
	b := n.base
	numE := len(b.edges)
	l := layoutV2(int64(n.numV), int64(numE), int64(n.numIA))
	// bw keeps its first error: every write after it is dropped, and Flush
	// returns it.
	bw := bufio.NewWriterSize(w, 1<<20)

	var hdr [binaryHeaderV2]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion2)
	binary.LittleEndian.PutUint16(hdr[6:8], binaryRecordSize)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(l.numV))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(l.numE))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(l.numIA))
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(n.maxTime))
	bw.Write(hdr[:])

	writeSection(bw, leI32, numE, func(e int) int32 { return b.edges[e].From })
	writeSection(bw, leI32, numE, func(e int) int32 { return b.edges[e].To })
	// Vertices grown since the fold (WithVertices) have no adjacency in the
	// base: their runs are empty, at the end of the edge table.
	for _, off := range [][]int32{b.outOff, b.inOff} {
		writeSection(bw, leI32, n.numV+1, func(v int) int32 { return off[min(v, len(off)-1)] })
	}
	for _, adj := range [][]EdgeID{b.outAdj, b.inAdj} {
		writeSection(bw, leI32, numE, func(i int) int32 { return adj[i] })
	}
	var zero [8]byte
	bw.Write(zero[:l.pad1])
	end := int64(0)
	writeSection(bw, leI64, numE, func(e int) int64 { end += int64(len(b.edges[e].Seq)); return end })
	writeSection(bw, leI64, numE, func(i int) int64 { return b.pairKeys[i] })
	writeSection(bw, leI32, numE, func(i int) int32 { return b.pairIDs[i] })
	bw.Write(zero[:l.pad2])
	writeSection(bw, leRecord, n.numIA, func(i int) Interaction { return b.arena[i] })
	return bw.Flush()
}

// writeSection writes count values, at(0) first, filling the writer's
// buffer before each write.
func writeSection[T any](bw *bufio.Writer, c le[T], count int, at func(int) T) {
	for i := 0; i < count; {
		buf := bw.AvailableBuffer()
		for k := max(cap(buf)/c.size, 1); k > 0 && i < count; k-- {
			buf = c.put(buf, at(i))
			i++
		}
		bw.Write(buf)
	}
}

// ReadNetworkBinary parses the binary snapshot format, copying every
// section onto the heap: it is the portable loader, for gzip'd files,
// big-endian hosts and platforms without mmap. The returned network is
// finalized; because records carry the canonical order on disk, no
// re-rank is performed. Corrupt input of any kind yields an error, never
// a panic: on top of the structural check it shares with the mapper, it
// proves the arena in canonical order.
func ReadNetworkBinary(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr, err := br.Peek(binaryHeaderV2)
	if len(hdr) < binaryPrefix {
		return nil, fmt.Errorf("tin: binary header: %w", err)
	}
	if err := checkPrefix(hdr); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("tin: binary v2 header: %w", err)
	}
	img, l, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	// The header is only peeked: the reader starts at offset 0, and the
	// first section skips it.
	sr := &sectionReader{br: br}
	img.edgeFrom = readSection[int32](sr, "edgeFrom", l.edgeFrom, img.numE)
	img.edgeTo = readSection[int32](sr, "edgeTo", l.edgeTo, img.numE)
	img.outOff = readSection[int32](sr, "outOff", l.outOff, img.numV+1)
	img.inOff = readSection[int32](sr, "inOff", l.inOff, img.numV+1)
	img.outAdj = readSection[EdgeID](sr, "outAdj", l.outAdj, img.numE)
	img.inAdj = readSection[EdgeID](sr, "inAdj", l.inAdj, img.numE)
	img.seqEnd = readSection[int64](sr, "seqEnd", l.seqEnd, img.numE)
	img.pairKeys = readSection[int64](sr, "pairKeys", l.pairKeys, img.numE)
	img.pairIDs = readSection[EdgeID](sr, "pairIDs", l.pairIDs, img.numE)
	img.arena = readSection[Interaction](sr, "arena", l.arena, img.numIA)
	if sr.err != nil {
		return nil, sr.err
	}
	if err := img.check(); err != nil {
		return nil, err
	}
	if err := img.checkOrder(); err != nil {
		return nil, err
	}
	return img.network(nil), nil
}

// checkPrefix checks the first 8 bytes of a binary network file — magic,
// version and record size — and accepts version 2 only.
func checkPrefix(b []byte) error {
	if string(b[0:4]) != binaryMagic {
		return fmt.Errorf("tin: not a binary network file (magic %q)", b[0:4])
	}
	if rs := binary.LittleEndian.Uint16(b[6:8]); rs != binaryRecordSize {
		return fmt.Errorf("tin: unsupported binary record size %d (want %d)", rs, binaryRecordSize)
	}
	switch v := binary.LittleEndian.Uint16(b[4:6]); v {
	case binaryVersion1:
		return errors.New("tin: version 1 snapshots are no longer supported; reload from the text format")
	case binaryVersion2:
		return nil
	default:
		return fmt.Errorf("tin: unsupported binary version %d", v)
	}
}

// decodeHeader decodes the 40-byte header of a version-2 file into an
// image without sections, and the layout its counts imply. It bounds the
// counts, so that no section offset overflows: a hostile header is an
// error here, not an index out of range later.
func decodeHeader(hdr []byte) (*image, v2Layout, error) {
	img := &image{
		numV:    int64(binary.LittleEndian.Uint64(hdr[8:16])),
		numE:    int64(binary.LittleEndian.Uint64(hdr[16:24])),
		numIA:   int64(binary.LittleEndian.Uint64(hdr[24:32])),
		maxTime: math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:40])),
	}
	switch {
	case img.numV <= 0 || img.numV > MaxVertices:
		return nil, v2Layout{}, fmt.Errorf("tin: binary v2 vertex count %d out of range (0,%d]", img.numV, MaxVertices)
	case img.numE < 0 || img.numE > math.MaxInt32 || img.numIA < img.numE || img.numIA > maxInteractions:
		return nil, v2Layout{}, fmt.Errorf("tin: binary v2 counts inconsistent (%d edges, %d interactions)", img.numE, img.numIA)
	case img.numIA == 0 && !math.IsInf(img.maxTime, -1),
		img.numIA > 0 && (math.IsNaN(img.maxTime) || math.IsInf(img.maxTime, 0)):
		return nil, v2Layout{}, fmt.Errorf("tin: binary v2 header maxTime %v invalid for %d interactions", img.maxTime, img.numIA)
	}
	return img, layoutV2(img.numV, img.numE, img.numIA), nil
}

// sectionReader copies sections off a stream in file order. It keeps its
// first error, and reads nothing after it.
type sectionReader struct {
	br  *bufio.Reader
	pos int64
	err error
}

// sectionStep is the most bytes readSection commits to a section before
// the stream has shown that it holds them.
const sectionStep = 1 << 20

// readSection reads the count values of the section at byte offset off,
// skipping the padding before it, straight into a slice of exactly count
// values. It grows the slice in steps, each at most the size of what was
// read so far (sectionStep at first), so a header that lies about a count
// fails at EOF instead of committing memory for it. The values are
// little-endian on disk: on a big-endian host each is byte-swapped in
// place.
func readSection[T int32 | int64 | Interaction](sr *sectionReader, name string, off, count int64) []T {
	if sr.err != nil {
		return nil
	}
	if _, err := sr.br.Discard(int(off - sr.pos)); err != nil {
		sr.err = fmt.Errorf("tin: binary v2 padding before %s: %w", name, err)
		return nil
	}
	var zero T
	size := int64(unsafe.Sizeof(zero))
	out := make([]T, min(count, sectionStep/size))
	for read := 0; ; {
		b := sectionBytes(out[read:])
		if n, err := io.ReadFull(sr.br, b); err != nil {
			sr.err = fmt.Errorf("tin: binary v2 %s[%d]: %w", name, int64(read)+int64(n)/size, err)
			return nil
		}
		if !hostLE {
			swapWords(b, min(int(size), 8))
		}
		if read = len(out); int64(read) == count {
			break
		}
		grown := make([]T, min(count, 2*int64(read)))
		copy(grown, out)
		out = grown
	}
	sr.pos = off + count*size
	return out
}

// sectionBytes returns the memory of s as bytes.
func sectionBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// swapWords reverses the bytes of each width-byte word of b in place.
func swapWords(b []byte, width int) {
	for w := b; len(w) >= width; w = w[width:] {
		slices.Reverse(w[:width])
	}
}

// check is the one structural check both loaders accept an image through.
// It is O(V+E) and does not read the arena: the edge table is in range and
// its runs tile the arena (checkEdgeTable); each adjacency run lists
// exactly the edges leaving (entering) its vertex, in ascending id order;
// and the pair index lists every edge once, under its own key, strictly
// ascending. An image that passes holds exactly the arrays indexEdges
// derives from its edge table.
func (img *image) check() error {
	if err := checkEdgeTable(img.edgeFrom, img.edgeTo, img.seqEnd, img.numV, img.numIA); err != nil {
		return err
	}
	if err := checkAdjacency("out", img.outOff, img.outAdj, img.edgeFrom); err != nil {
		return err
	}
	if err := checkAdjacency("in", img.inOff, img.inAdj, img.edgeTo); err != nil {
		return err
	}
	// Keys strictly ascending are distinct, so the ids they are the keys
	// of are too: numE entries list every edge once (and no edge repeats
	// another's endpoints).
	prev := int64(-1)
	for i, id := range img.pairIDs {
		k := img.pairKeys[i]
		if k <= prev || id < 0 || int64(id) >= img.numE || k != pairKey(img.edgeFrom[id], img.edgeTo[id]) {
			return fmt.Errorf("tin: binary v2 pair index entry %d (key %d, edge %d) out of place", i, k, id)
		}
		prev = k
	}
	return nil
}

// checkEdgeTable checks a version-2 edge table against the header counts:
// endpoints in range, no self loops, arena runs non-empty, back to back
// and covering exactly numIA interactions.
func checkEdgeTable(edgeFrom, edgeTo []int32, seqEnd []int64, numV, numIA int64) error {
	prev := int64(0)
	for e := range edgeFrom {
		f, t := edgeFrom[e], edgeTo[e]
		if f < 0 || int64(f) >= numV || t < 0 || int64(t) >= numV || f == t {
			return fmt.Errorf("tin: binary v2 edge %d endpoints (%d,%d) invalid for %d vertices", e, f, t, numV)
		}
		if seqEnd[e] <= prev || seqEnd[e] > numIA {
			return fmt.Errorf("tin: binary v2 edge %d sequence end %d out of order (prev %d, total %d)", e, seqEnd[e], prev, numIA)
		}
		prev = seqEnd[e]
	}
	if prev != numIA {
		return fmt.Errorf("tin: binary v2 edge table covers %d of %d interactions", prev, numIA)
	}
	return nil
}

// checkAdjacency checks one direction of the adjacency: off tiles adj,
// and vertex v's run lists, strictly ascending, edges whose endpoint
// end[e] is v. Entries are distinct within a run by order and across runs
// by endpoint, so the len(end) entries list every edge once.
func checkAdjacency(dir string, off []int32, adj []EdgeID, end []int32) error {
	if off[0] != 0 || int(off[len(off)-1]) != len(adj) {
		return fmt.Errorf("tin: binary v2 %s-adjacency offsets do not cover the edge table", dir)
	}
	for v := 0; v+1 < len(off); v++ {
		lo, hi := off[v], off[v+1]
		if hi < lo || int(hi) > len(adj) {
			return fmt.Errorf("tin: binary v2 %s-adjacency offsets not monotone at vertex %d", dir, v)
		}
		prev := EdgeID(-1)
		for _, e := range adj[lo:hi] {
			if e <= prev || int(e) >= len(end) || end[e] != VertexID(v) {
				return fmt.Errorf("tin: binary v2 %s-adjacency of vertex %d lists edge %d out of place", dir, v, e)
			}
			prev = e
		}
	}
	return nil
}

// checkOrder is the O(numIA) proof that the arena is in canonical order,
// which only the copying reader runs: every interaction is valid, the Ord
// values are a permutation of [0, numIA) under which timestamps are
// non-decreasing and each edge run is ascending — exactly the invariants
// Finalize establishes — and the header's maxTime is the latest time.
func (img *image) checkOrder() error {
	timeByOrd := make([]float64, img.numIA)
	seenOrd := make([]bool, img.numIA)
	e := 0
	lastOrd := int64(-1)
	for i, ia := range img.arena {
		for int64(i) >= img.seqEnd[e] {
			e++
			lastOrd = -1
		}
		if ia.Qty < 0 || math.IsNaN(ia.Qty) || math.IsInf(ia.Qty, 0) || math.IsNaN(ia.Time) || math.IsInf(ia.Time, 0) {
			return fmt.Errorf("tin: binary v2 interaction %d: invalid (%v,%v)", i, ia.Time, ia.Qty)
		}
		if ia.Ord < 0 || ia.Ord >= img.numIA || seenOrd[ia.Ord] {
			return fmt.Errorf("tin: binary v2 interaction %d: ord %d not a permutation of [0,%d)", i, ia.Ord, img.numIA)
		}
		seenOrd[ia.Ord] = true
		timeByOrd[ia.Ord] = ia.Time
		if ia.Ord <= lastOrd {
			return fmt.Errorf("tin: binary v2 interaction %d: edge sequence not in canonical order", i)
		}
		lastOrd = ia.Ord
	}
	for o := 1; o < len(timeByOrd); o++ {
		if timeByOrd[o] < timeByOrd[o-1] {
			return fmt.Errorf("tin: binary v2 ord %d: time %v precedes %v (canonical order violated)", o, timeByOrd[o], timeByOrd[o-1])
		}
	}
	if n := len(timeByOrd); n > 0 && img.maxTime != timeByOrd[n-1] {
		return fmt.Errorf("tin: binary v2 header maxTime %v does not match records (%v)", img.maxTime, timeByOrd[n-1])
	}
	return nil
}

// network returns the finalized network over a checked image. mm is the
// mapping the image aliases, nil for one on the heap. Edge e's Seq is its
// arena run, three-index sliced so nothing can grow into the neighbouring
// run (or into a read-only mapping).
func (img *image) network(mm *mmapRegion) *Network {
	edges := make([]Edge, img.numE)
	off := int64(0)
	for e := range edges {
		end := img.seqEnd[e]
		edges[e] = Edge{From: img.edgeFrom[e], To: img.edgeTo[e], Seq: img.arena[off:end:end]}
		off = end
	}
	return &Network{
		numV:    int(img.numV),
		numIA:   int(img.numIA),
		nextOrd: img.numIA,
		maxTime: img.maxTime,
		base: &base{
			edges:    edges,
			arena:    img.arena,
			outOff:   img.outOff,
			inOff:    img.inOff,
			outAdj:   img.outAdj,
			inAdj:    img.inAdj,
			pairKeys: img.pairKeys,
			pairIDs:  img.pairIDs,
			mm:       mm,
		},
	}
}
