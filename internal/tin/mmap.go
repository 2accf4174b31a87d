package tin

import (
	"fmt"
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
// owner's AppendBatch releases it when a fold moves the receiver onto a
// heap base, the store releases it when the last pin on the last version
// over the mapped base drops (and its Close waits for that), and anyone
// else calls Unmap.
//
// Trust. A mapped file is accepted through the copying reader's header
// decode and structural check (binary.go): the counts are bounded, the
// edge table is in range and tiles the arena, and every adjacency run and
// pair-index entry is the one the edge table implies. So the mapper serves
// exactly the network the copying reader builds from the same bytes. What
// it skips is the O(numIA) proof that the arena is in canonical order,
// which would read every page of the arena at load: a file only that proof
// refuses maps, and every other corrupt file is refused by both loaders.
//
// Portability. OpenNetworkMmap falls back to the copying decoder whenever
// zero-copy cannot work: non-unix builds, big-endian hosts, or gzip'd
// files. The result is the same network either way; only MmapBacked
// differs. A version-1 snapshot is refused on every path, with the copying
// reader's "reload from the text format" error.

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

// OpenNetworkMmap loads a network file, serving it zero-copy from an mmap
// when possible. Files that cannot be mmap'd — gzip'd, text, or any file
// on a platform or host where zero-copy is unavailable — load through the
// regular copying path instead, so callers can use this unconditionally;
// MmapBacked on the result tells which path was taken. A version-1 binary
// file reaches the copying path too, which refuses it.
func OpenNetworkMmap(path string) (*Network, error) {
	if mmapSupported && hostLE && !strings.HasSuffix(path, ".gz") {
		region, err := platformMmap(path)
		if err == nil {
			if len(region.data) >= binaryHeaderV2 && checkPrefix(region.data) == nil {
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

// mmapNetwork builds a Network whose CSR arrays alias the mapped bytes. It
// accepts the image through the copying reader's header decode and
// structural check (binary.go), O(V+E); the O(numIA) canonical-order proof
// is the copying reader's alone, so a load never reads the arena.
func mmapNetwork(region *mmapRegion) (*Network, error) {
	data := region.data
	img, l, err := decodeHeader(data[:binaryHeaderV2])
	if err != nil {
		return nil, err
	}
	if l.total > int64(len(data)) {
		return nil, fmt.Errorf("tin: mmap: file is %d bytes, header implies %d", len(data), l.total)
	}
	img.edgeFrom = view[int32](data, l.edgeFrom, img.numE)
	img.edgeTo = view[int32](data, l.edgeTo, img.numE)
	img.outOff = view[int32](data, l.outOff, img.numV+1)
	img.inOff = view[int32](data, l.inOff, img.numV+1)
	img.outAdj = view[EdgeID](data, l.outAdj, img.numE)
	img.inAdj = view[EdgeID](data, l.inAdj, img.numE)
	img.seqEnd = view[int64](data, l.seqEnd, img.numE)
	img.pairKeys = view[int64](data, l.pairKeys, img.numE)
	img.pairIDs = view[EdgeID](data, l.pairIDs, img.numE)
	img.arena = view[Interaction](data, l.arena, img.numIA)
	if err := img.check(); err != nil {
		return nil, err
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
	_ = adviseRandom(data, l.arena, img.numIA*binaryRecordSize)
	return img.network(region), nil
}

// view returns the count values of type T at byte offset off of data,
// aliasing it. The slice has len == cap, so an append to it could only
// reallocate to the heap, never write through the read-only mapping.
func view[T any](data []byte, off, count int64) []T {
	if count == 0 {
		return []T{}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), count)
}
