package tin

import (
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Zero-copy network loading. A version-2 binary snapshot (binary.go) is a
// byte image of the finalized CSR layout, so on platforms with mmap the
// store can serve a network straight out of the page cache: load becomes a
// header check plus O(V+E) validation instead of an O(numIA) decode, and
// networks larger than RAM remain servable because pages are faulted in on
// demand.
//
// Lifecycle. The mapping is read-only, and nothing ever writes through it:
// a base image is immutable (csr.go), an append derives a version whose
// tail lives on the heap and whose base stays mapped, and a fold lays the
// next base out on the heap. The mapping is released by whoever owns the
// versions that share it, once none of them can be read any more: a single
// owner's AppendBatch/MergeUnordered releases it when a fold moves the
// receiver onto a heap base, the store releases it when the last pin on
// the last version over the mapped base drops (and its Close waits for
// that), and anyone else calls Unmap.
//
// Portability. OpenNetworkMmap falls back to the copying decoder whenever
// zero-copy cannot work: non-unix builds, big-endian hosts, a compiler
// that lays Interaction out differently, gzip'd files, or version-1
// snapshots. The result is the same network either way; only MmapBacked
// differs.

// mmapRegion is a live file mapping backing a network's CSR arrays.
type mmapRegion struct {
	data  []byte
	unmap func()
}

func (m *mmapRegion) close() {
	if m.unmap != nil {
		m.unmap()
		m.unmap = nil
	}
	m.data = nil
}

// MmapBacked reports whether the network's base currently aliases an
// mmap'd snapshot file.
func (n *Network) MmapBacked() bool { return n.base.mm != nil && n.base.mm.data != nil }

// Unmap releases the snapshot mapping under the network's base, if any,
// without copying. Neither the network nor any other version sharing that
// base may be used afterwards: their arrays dangle. It is for owners
// discarding a network; use on a network that will still be queried is a
// use-after-free. No-op on heap-backed networks.
func (n *Network) Unmap() {
	if n.base.mm != nil {
		n.base.mm.close()
	}
}

// hostLE reports a little-endian host — a requirement for serving the
// little-endian on-disk sections as native slices.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// interactionLayoutOK verifies at init that the compiler laid Interaction
// out exactly as the on-disk record ({time f64, qty f64, ord i64}, 24
// bytes, no padding); zero-copy is disabled otherwise.
var interactionLayoutOK = unsafe.Sizeof(Interaction{}) == binaryRecordSize &&
	unsafe.Offsetof(Interaction{}.Time) == 0 &&
	unsafe.Offsetof(Interaction{}.Qty) == 8 &&
	unsafe.Offsetof(Interaction{}.Ord) == 16

// OpenNetworkMmap loads a network file, serving it zero-copy from an mmap
// when possible. Files that cannot be mmap'd — gzip'd, text, version-1
// binary, or any file on a platform or host where zero-copy is unavailable
// — load through the regular copying path instead, so callers can use this
// unconditionally; MmapBacked on the result tells which path was taken.
func OpenNetworkMmap(path string) (*Network, error) {
	if mmapSupported && hostLE && interactionLayoutOK && !strings.HasSuffix(path, ".gz") {
		region, err := platformMmap(path)
		if err == nil {
			if isV2Image(region.data) {
				n, err := mmapNetwork(region)
				if err != nil {
					region.close()
					return nil, err
				}
				return n, nil
			}
			// Some other (valid) format: decode it the portable way.
			region.close()
		}
		// Mapping failures (including missing files) fall through so the
		// portable path can produce its usual errors.
	}
	return LoadNetwork(path)
}

// isV2Image reports whether data starts with a version-2 binary header.
func isV2Image(data []byte) bool {
	return len(data) >= binaryHeaderV2 &&
		string(data[0:4]) == binaryMagic &&
		leU16(data[4:6]) == binaryVersion2 &&
		leU16(data[6:8]) == binaryRecordSize
}

func leU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// mmapNetwork builds a Network whose CSR arrays alias the mapped bytes.
// Validation is O(V+E) — header consistency, section bounds, offset
// monotonicity, id ranges — matching the trust model of a snapshot the
// store wrote itself; the O(numIA) canonical-order proof is the copying
// reader's job for untrusted input.
func mmapNetwork(region *mmapRegion) (*Network, error) {
	data := region.data
	numV := int64(leU64(data[8:16]))
	numE := int64(leU64(data[16:24]))
	numIA := int64(leU64(data[24:32]))
	maxTime := math.Float64frombits(leU64(data[32:40]))
	if numV <= 0 || numV > MaxVertices {
		return nil, fmt.Errorf("tin: mmap: vertex count %d out of range (0,%d]", numV, MaxVertices)
	}
	if numE < 0 || numIA < 0 || numE > numIA {
		return nil, fmt.Errorf("tin: mmap: counts inconsistent (%d edges, %d interactions)", numE, numIA)
	}
	l := layoutV2(numV, numE, numIA)
	if l.total > int64(len(data)) {
		return nil, fmt.Errorf("tin: mmap: file is %d bytes, header implies %d", len(data), l.total)
	}

	edgeFrom := sliceI32(data, l.edgeFrom, numE)
	edgeTo := sliceI32(data, l.edgeTo, numE)
	outOff := sliceI32(data, l.outOff, numV+1)
	inOff := sliceI32(data, l.inOff, numV+1)
	outAdj := sliceI32(data, l.outAdj, numE)
	inAdj := sliceI32(data, l.inAdj, numE)
	seqEnd := sliceI64(data, l.seqEnd, numE)
	pairKeys := sliceI64(data, l.pairKeys, numE)
	pairIDs := sliceI32(data, l.pairIDs, numE)
	arena := sliceIA(data, l.arena, numIA)

	if err := checkEdgeTable("mmap", edgeFrom, edgeTo, seqEnd, numV, numIA); err != nil {
		return nil, err
	}
	for e := int64(0); e < numE; e++ {
		if int64(outAdj[e]) < 0 || int64(outAdj[e]) >= numE || int64(inAdj[e]) < 0 || int64(inAdj[e]) >= numE {
			return nil, fmt.Errorf("tin: mmap: adjacency entry %d out of range", e)
		}
		if int64(pairIDs[e]) < 0 || int64(pairIDs[e]) >= numE {
			return nil, fmt.Errorf("tin: mmap: pair id %d out of range", e)
		}
		if e > 0 && pairKeys[e] <= pairKeys[e-1] {
			return nil, fmt.Errorf("tin: mmap: pair index not strictly sorted at %d", e)
		}
	}
	if outOff[0] != 0 || inOff[0] != 0 || int64(outOff[numV]) != numE || int64(inOff[numV]) != numE {
		return nil, fmt.Errorf("tin: mmap: adjacency offsets do not cover the edge table")
	}
	for v := int64(0); v < numV; v++ {
		if outOff[v+1] < outOff[v] || inOff[v+1] < inOff[v] {
			return nil, fmt.Errorf("tin: mmap: adjacency offsets not monotone at vertex %d", v)
		}
	}

	// The arena is always advised MADV_RANDOM: query extraction touches it
	// footprint-at-a-time — scattered short runs, one per in-footprint edge
	// — so sequential readahead would drag in pages no query reads, and a
	// cold query on a network much larger than RAM faults in only (roughly)
	// its footprint's pages. The smaller edge-table/offset/adjacency
	// sections keep default advice: they are dense, touched on every query,
	// and profit from readahead. Best-effort: a platform without madvise
	// (the stub is a no-op) or a kernel that rejects the advice still
	// serves the mapping correctly.
	_ = adviseRandom(data, l.arena, numIA*binaryRecordSize)

	n := &Network{
		numV:      int(numV),
		numIA:     int(numIA),
		nextOrd:   numIA,
		finalized: true,
		maxTime:   maxTime,
		base: &base{
			edges:    edgesFromRuns(edgeFrom, edgeTo, seqEnd, arena),
			arena:    arena,
			outOff:   outOff,
			inOff:    inOff,
			outAdj:   outAdj,
			inAdj:    inAdj,
			pairKeys: pairKeys,
			pairIDs:  pairIDs,
			mm:       region,
		},
	}
	if numIA == 0 {
		n.maxTime = math.Inf(-1)
	}
	return n, nil
}

// The slice casts below produce len == cap slices, so an append on one of
// them could only reallocate to the heap, never write through the
// read-only mapping.

func sliceI32(data []byte, off, count int64) []int32 {
	if count == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[off])), count)
}

func sliceI64(data []byte, off, count int64) []int64 {
	if count == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), count)
}

func sliceIA(data []byte, off, count int64) []Interaction {
	if count == 0 {
		return []Interaction{}
	}
	return unsafe.Slice((*Interaction)(unsafe.Pointer(&data[off])), count)
}
