package tin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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
// O(V+E) validation, never an O(numIA) decode. The copying reader
// (ReadNetworkBinary) fully validates untrusted input; corrupt bytes of any
// kind yield an error, never a panic. Version 1 (a canonical-order record
// stream, last written before the CSR layout existed) is recognized only to
// be rejected with a message that says how to recover.
//
// LoadNetwork sniffs the magic, so binary and text files coexist behind one
// loader — including gzip-compressed binary files under ".gz" names.

const (
	binaryMagic      = "FNTB"
	binaryVersion1   = 1
	binaryVersion2   = 2
	binaryRecordSize = 24
	// binaryHeaderPrefix covers magic, version, recordSize, numV and numE —
	// what the reader needs before it dispatches on the version.
	binaryHeaderPrefix = 4 + 2 + 2 + 8 + 8
	binaryHeaderV2     = binaryHeaderPrefix + 8 + 8
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

// WriteNetworkBinary writes the network to w in the version-2 binary
// snapshot format. The network's interactions must be in canonical order
// (every finalized network qualifies); the written file is exactly the CSR
// memory image, so saving a network and mmap'ing the file back reproduces
// it bit for bit.
func WriteNetworkBinary(w io.Writer, n *Network) error {
	// A version with a tail is written as its fold: the file is the image
	// of one base, whatever the network was derived through.
	n = n.Folded()
	edges := n.base.edges
	numV, numE, numIA := int64(n.numV), int64(len(edges)), int64(n.numIA)
	l := layoutV2(numV, numE, numIA)
	bw := bufio.NewWriterSize(w, 1<<20)

	maxTime := math.Inf(-1)
	for e := range edges {
		for _, ia := range edges[e].Seq {
			if ia.Time > maxTime {
				maxTime = ia.Time
			}
		}
	}

	var hdr [binaryHeaderV2]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion2)
	binary.LittleEndian.PutUint16(hdr[6:8], binaryRecordSize)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(numV))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(numE))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(numIA))
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(maxTime))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	wi32 := func(v int32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		_, err := bw.Write(b[:])
		return err
	}
	wi64 := func(v int64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, err := bw.Write(b[:])
		return err
	}

	for e := range edges {
		if err := wi32(edges[e].From); err != nil {
			return err
		}
	}
	for e := range edges {
		if err := wi32(edges[e].To); err != nil {
			return err
		}
	}
	// Adjacency and pair sections are recomputed from the edge table rather
	// than taken from the network's fields, so the writer also serves a
	// version whose vertex count grew past its base's (WithVertices).
	outOff, inOff, outAdj, inAdj := buildAdjacency(n.numV, edges)
	for _, v := range outOff {
		if err := wi32(v); err != nil {
			return err
		}
	}
	for _, v := range inOff {
		if err := wi32(v); err != nil {
			return err
		}
	}
	for _, v := range outAdj {
		if err := wi32(v); err != nil {
			return err
		}
	}
	for _, v := range inAdj {
		if err := wi32(v); err != nil {
			return err
		}
	}
	var zero [8]byte
	if _, err := bw.Write(zero[:l.pad1]); err != nil {
		return err
	}
	end := int64(0)
	for e := range edges {
		end += int64(len(edges[e].Seq))
		if err := wi64(end); err != nil {
			return err
		}
	}
	pairKeys, pairIDs := buildPairIndex(edges)
	for _, k := range pairKeys {
		if err := wi64(k); err != nil {
			return err
		}
	}
	for _, id := range pairIDs {
		if err := wi32(id); err != nil {
			return err
		}
	}
	if _, err := bw.Write(zero[:l.pad2]); err != nil {
		return err
	}
	var rec [binaryRecordSize]byte
	for e := range edges {
		for _, ia := range edges[e].Seq {
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(ia.Time))
			binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(ia.Qty))
			binary.LittleEndian.PutUint64(rec[16:24], uint64(ia.Ord))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadNetworkBinary parses the binary snapshot format. The returned network
// is finalized; because records carry the canonical order on disk, no
// re-rank is performed. Corrupt input of any kind yields an
// error, never a panic.
func ReadNetworkBinary(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [binaryHeaderPrefix]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tin: binary header: %w", err)
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("tin: not a binary network file (magic %q)", hdr[0:4])
	}
	if rs := binary.LittleEndian.Uint16(hdr[6:8]); rs != binaryRecordSize {
		return nil, fmt.Errorf("tin: unsupported binary record size %d (want %d)", rs, binaryRecordSize)
	}
	switch v := binary.LittleEndian.Uint16(hdr[4:6]); v {
	case binaryVersion1:
		return nil, errors.New("tin: version 1 snapshots are no longer supported; reload from the text format")
	case binaryVersion2:
		return readBinaryV2(br, hdr)
	default:
		return nil, fmt.Errorf("tin: unsupported binary version %d", v)
	}
}

// readBinaryV2 parses the CSR-image format from a stream, copying every
// section onto the heap and fully validating it — the trust model of a
// generic loader, as opposed to the mmap path which only light-checks a
// snapshot the store itself wrote. Section sizes are implied by the header
// counts, so a lying header fails at EOF instead of committing memory:
// every section is read in bounded chunks.
func readBinaryV2(br *bufio.Reader, hdr [binaryHeaderPrefix]byte) (*Network, error) {
	var ext [binaryHeaderV2 - binaryHeaderPrefix]byte
	if _, err := io.ReadFull(br, ext[:]); err != nil {
		return nil, fmt.Errorf("tin: binary v2 header: %w", err)
	}
	numV := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	numE := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	numIA := int64(binary.LittleEndian.Uint64(ext[0:8]))
	maxTime := math.Float64frombits(binary.LittleEndian.Uint64(ext[8:16]))
	if numV <= 0 {
		return nil, fmt.Errorf("tin: binary network with zero vertices")
	}
	if numV > MaxVertices {
		return nil, fmt.Errorf("tin: binary vertex count %d exceeds limit %d", numV, MaxVertices)
	}
	if numE < 0 || numIA < 0 || numE > numIA {
		return nil, fmt.Errorf("tin: binary v2 counts inconsistent (%d edges, %d interactions)", numE, numIA)
	}
	l := layoutV2(numV, numE, numIA)

	edgeFrom, err := readI32Section(br, numE, "edgeFrom")
	if err != nil {
		return nil, err
	}
	edgeTo, err := readI32Section(br, numE, "edgeTo")
	if err != nil {
		return nil, err
	}
	// The adjacency and pair sections are redundant with the edge table;
	// the untrusted path skips and rebuilds them rather than verifying.
	skip := (numV+1)*4*2 + numE*4*2 + l.pad1
	if _, err := io.CopyN(io.Discard, br, skip); err != nil {
		return nil, fmt.Errorf("tin: binary v2 adjacency: %w", err)
	}
	seqEnd, err := readI64Section(br, numE, "seqEnd")
	if err != nil {
		return nil, err
	}
	skip = numE*8 + numE*4 + l.pad2
	if _, err := io.CopyN(io.Discard, br, skip); err != nil {
		return nil, fmt.Errorf("tin: binary v2 pair index: %w", err)
	}
	arena, err := readArenaSection(br, numIA)
	if err != nil {
		return nil, err
	}

	if err := checkEdgeTable("binary v2", edgeFrom, edgeTo, seqEnd, numV, numIA); err != nil {
		return nil, err
	}
	keys := make([]int64, numE)
	for e := int64(0); e < numE; e++ {
		keys[e] = pairKey(edgeFrom[e], edgeTo[e])
	}
	slices.Sort(keys)
	for e := int64(1); e < numE; e++ {
		if keys[e] == keys[e-1] {
			return nil, fmt.Errorf("tin: binary v2 duplicate edge (%d,%d)", keys[e]>>32, int32(keys[e])) //nolint:gosec
		}
	}
	// Ord values must be a permutation of [0, numIA) under which timestamps
	// are non-decreasing and each edge run is ascending — exactly the
	// canonical-order invariants Finalize establishes.
	timeByOrd := make([]float64, numIA)
	seenOrd := make([]bool, numIA)
	e := int64(0)
	lastOrd := int64(-1)
	for i := int64(0); i < numIA; i++ {
		for i >= seqEnd[e] {
			e++
			lastOrd = -1
		}
		ia := arena[i]
		if ia.Qty < 0 || math.IsNaN(ia.Qty) || math.IsInf(ia.Qty, 0) || math.IsNaN(ia.Time) || math.IsInf(ia.Time, 0) {
			return nil, fmt.Errorf("tin: binary v2 interaction %d: invalid (%v,%v)", i, ia.Time, ia.Qty)
		}
		if ia.Ord < 0 || ia.Ord >= numIA || seenOrd[ia.Ord] {
			return nil, fmt.Errorf("tin: binary v2 interaction %d: ord %d not a permutation of [0,%d)", i, ia.Ord, numIA)
		}
		seenOrd[ia.Ord] = true
		timeByOrd[ia.Ord] = ia.Time
		if ia.Ord <= lastOrd {
			return nil, fmt.Errorf("tin: binary v2 interaction %d: edge sequence not in canonical order", i)
		}
		lastOrd = ia.Ord
	}
	for o := int64(1); o < numIA; o++ {
		if timeByOrd[o] < timeByOrd[o-1] {
			return nil, fmt.Errorf("tin: binary v2 ord %d: time %v precedes %v (canonical order violated)", o, timeByOrd[o], timeByOrd[o-1])
		}
	}
	wantMax := math.Inf(-1)
	if numIA > 0 {
		wantMax = timeByOrd[numIA-1]
	}
	if maxTime != wantMax && !(math.IsInf(maxTime, -1) && math.IsInf(wantMax, -1)) {
		return nil, fmt.Errorf("tin: binary v2 header maxTime %v does not match records (%v)", maxTime, wantMax)
	}

	b := &base{edges: edgesFromRuns(edgeFrom, edgeTo, seqEnd, arena), arena: arena}
	b.indexEdges(int(numV), nil, nil)
	return &Network{
		numV:      int(numV),
		numIA:     int(numIA),
		nextOrd:   numIA,
		finalized: true,
		maxTime:   wantMax,
		base:      b,
	}, nil
}

// checkEdgeTable validates a version-2 edge table against the header
// counts — endpoints in range, no self loops, arena runs non-empty,
// back to back and covering exactly numIA interactions. It is the O(E)
// structural check the copying reader and the mmap loader share; what
// names the caller in the error.
func checkEdgeTable(what string, edgeFrom, edgeTo []int32, seqEnd []int64, numV, numIA int64) error {
	prev := int64(0)
	for e := range edgeFrom {
		f, t := edgeFrom[e], edgeTo[e]
		if f < 0 || int64(f) >= numV || t < 0 || int64(t) >= numV || f == t {
			return fmt.Errorf("tin: %s: edge %d endpoints (%d,%d) invalid for %d vertices", what, e, f, t, numV)
		}
		if seqEnd[e] <= prev || seqEnd[e] > numIA {
			return fmt.Errorf("tin: %s: edge %d sequence end %d out of order (prev %d, total %d)", what, e, seqEnd[e], prev, numIA)
		}
		prev = seqEnd[e]
	}
	if prev != numIA {
		return fmt.Errorf("tin: %s: edge table covers %d of %d interactions", what, prev, numIA)
	}
	return nil
}

// edgesFromRuns builds the edge table over a checked version-2 image: edge
// e's Seq is its arena run, three-index sliced so nothing can grow into the
// neighbouring run (or into a read-only mapping).
func edgesFromRuns(edgeFrom, edgeTo []int32, seqEnd []int64, arena []Interaction) []Edge {
	edges := make([]Edge, len(edgeFrom))
	off := int64(0)
	for e := range edges {
		end := seqEnd[e]
		edges[e] = Edge{From: edgeFrom[e], To: edgeTo[e], Seq: arena[off:end:end], canonical: true}
		off = end
	}
	return edges
}

// readI32Section reads count little-endian int32 values, growing the
// result in bounded chunks so a lying count fails at EOF.
func readI32Section(br *bufio.Reader, count int64, name string) ([]int32, error) {
	out := make([]int32, 0, min(count, 1<<16))
	var b [4]byte
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("tin: binary v2 %s[%d]: %w", name, i, err)
		}
		out = append(out, int32(binary.LittleEndian.Uint32(b[:])))
	}
	return out, nil
}

// readI64Section reads count little-endian int64 values with the same
// bounded-growth strategy as readI32Section.
func readI64Section(br *bufio.Reader, count int64, name string) ([]int64, error) {
	out := make([]int64, 0, min(count, 1<<16))
	var b [8]byte
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("tin: binary v2 %s[%d]: %w", name, i, err)
		}
		out = append(out, int64(binary.LittleEndian.Uint64(b[:])))
	}
	return out, nil
}

// readArenaSection reads count interaction records with bounded growth.
func readArenaSection(br *bufio.Reader, count int64) ([]Interaction, error) {
	out := make([]Interaction, 0, min(count, 1<<16))
	var rec [binaryRecordSize]byte
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("tin: binary v2 arena[%d]: %w", i, err)
		}
		out = append(out, Interaction{
			Time: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
			Qty:  math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			Ord:  int64(binary.LittleEndian.Uint64(rec[16:24])),
		})
	}
	return out, nil
}
