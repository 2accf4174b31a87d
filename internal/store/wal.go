package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"flownet/internal/fault"
)

// Per-network write-ahead log. One WAL file holds every accepted mutation
// since its base state (an empty network, an externally loaded network's
// initial snapshot, or a checkpoint snapshot). Layout:
//
//	header (32 bytes):
//	  magic   [8]byte  "FNTWAL01" (version is part of the magic)
//	  baseGen uint64   generation of the base state
//	  numV    uint64   vertex count of the base state
//	  hasBase uint8    1 when a snapshot-g<baseGen>.tinb file is the base,
//	                   0 when the base is an empty network with numV vertices
//	  pad     [7]byte
//	record:
//	  size    uint32   payload length
//	  crc     uint32   IEEE CRC-32 of the payload
//	  payload:
//	    op byte: 1 append, 2 reindex, 3 grow
//	    append:  flags byte (1 defer out-of-order, 2 grow), uvarint count,
//	             count × { uvarint from, uvarint to, time float64, qty float64 }
//	    grow:    uvarint numV
//
// Records are framed with a length prefix and a checksum so that a crash
// mid-write (kill -9, power loss) leaves a detectable torn tail: replay
// stops at the first frame that is short, oversized or fails its CRC, and
// the file is truncated back to the last good record. A record is only
// written after its operation was applied successfully, so replaying the
// prefix always succeeds and reproduces the exact acknowledged state.

const (
	walMagic      = "FNTWAL01"
	walHeaderSize = 8 + 8 + 8 + 1 + 7
	// maxWALRecord bounds one record frame; anything larger is treated as
	// tail corruption rather than an allocation request.
	maxWALRecord = 256 << 20

	opAppend  = 1
	opReindex = 2
	opGrow    = 3

	flagDefer = 1
	flagGrow  = 2
)

// walHeader is the decoded fixed-size WAL file header.
type walHeader struct {
	baseGen uint64
	numV    uint64
	hasBase bool
}

func (h walHeader) encode() []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint64(buf[8:16], h.baseGen)
	binary.LittleEndian.PutUint64(buf[16:24], h.numV)
	if h.hasBase {
		buf[24] = 1
	}
	return buf
}

func decodeWALHeader(buf []byte) (walHeader, error) {
	if len(buf) < walHeaderSize || string(buf[:8]) != walMagic {
		return walHeader{}, fmt.Errorf("store: not a WAL file")
	}
	return walHeader{
		baseGen: binary.LittleEndian.Uint64(buf[8:16]),
		numV:    binary.LittleEndian.Uint64(buf[16:24]),
		hasBase: buf[24] == 1,
	}, nil
}

// walFile is an open WAL with its append cursor. The handle comes from
// the store's FS, so fault injection reaches every WAL write and fsync.
type walFile struct {
	f       fault.File
	size    int64 // current end offset (== next record's start)
	records int   // records in the file (replayed + appended since open)
}

// createWAL writes a fresh WAL (header plus an optional first record) to a
// temporary file, fsyncs it, and renames it over path — the atomic commit
// of a checkpoint. The returned walFile keeps the descriptor open for
// appends; the rename does not disturb it.
func createWAL(fs fault.FS, path string, hdr walHeader, firstRecord []byte) (*walFile, error) {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &walFile{f: f}
	fail := func(err error) (*walFile, error) {
		f.Close()
		fs.Remove(tmp)
		return nil, err
	}
	if _, err := f.Write(hdr.encode()); err != nil {
		return fail(err)
	}
	w.size = walHeaderSize
	if firstRecord != nil {
		if err := w.append(firstRecord, false); err != nil {
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fail(err)
	}
	fs.SyncDir(filepath.Dir(path))
	return w, nil
}

// append frames and writes one record payload, optionally fsyncing. A
// payload larger than maxWALRecord is rejected before any byte is written:
// the reader treats oversized frames as tail corruption, so writing one
// would acknowledge a batch that recovery silently discards.
func (w *walFile) append(payload []byte, sync bool) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("store: WAL record of %d bytes exceeds the %d-byte limit; split the batch", len(payload), maxWALRecord)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	w.records++
	if sync {
		return w.f.Sync()
	}
	return nil
}

func (w *walFile) close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walRec is one mutation — the unit Shard.apply performs, whether it comes
// from a live call or from replay — plus, for a decoded record, its frame
// offsets, so that replay can truncate back to the start of a record it
// rejects.
type walRec struct {
	op         byte
	items      []Item
	opts       Options
	numV       int
	start, end int64
}

// readWAL reads a WAL file's header and as many intact records as the file
// holds. A torn or corrupt tail is not an error: reading stops there and
// goodOff reports the end of the last intact record, so the caller can
// truncate. Only a missing/corrupt header is a hard error.
func readWAL(fs fault.FS, path string) (hdr walHeader, recs []walRec, goodOff int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return walHeader{}, nil, 0, err
	}
	defer f.Close()
	// Offsets are tracked by hand from the bytes consumed, so buffering
	// cannot skew them.
	br := bufio.NewReaderSize(f, 1<<20)
	hbuf := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(br, hbuf); err != nil {
		return walHeader{}, nil, 0, fmt.Errorf("store: WAL header of %s: %w", path, err)
	}
	hdr, err = decodeWALHeader(hbuf)
	if err != nil {
		return walHeader{}, nil, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	goodOff = walHeaderSize
	var frame [8]byte
	for {
		start := goodOff
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return hdr, recs, goodOff, nil // clean EOF or torn frame header
		}
		size := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if size == 0 || size > maxWALRecord {
			return hdr, recs, goodOff, nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return hdr, recs, goodOff, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return hdr, recs, goodOff, nil
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return hdr, recs, goodOff, nil
		}
		goodOff = start + 8 + int64(size)
		rec.start, rec.end = start, goodOff
		recs = append(recs, rec)
	}
}

// ---- record payload codec ---------------------------------------------

func encodeAppend(items []Item, opts Options) []byte {
	buf := make([]byte, 0, 2+binary.MaxVarintLen64+len(items)*(2*binary.MaxVarintLen32+16))
	buf = append(buf, opAppend, appendFlags(opts))
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	var scratch [8]byte
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(uint32(it.From)))
		buf = binary.AppendUvarint(buf, uint64(uint32(it.To)))
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(it.Time))
		buf = append(buf, scratch[:]...)
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(it.Qty))
		buf = append(buf, scratch[:]...)
	}
	return buf
}

func appendFlags(opts Options) byte {
	var fl byte
	if opts.OnOutOfOrder == PolicyDefer {
		fl |= flagDefer
	}
	if opts.Grow {
		fl |= flagGrow
	}
	return fl
}

func encodeReindex() []byte { return []byte{opReindex} }

// encode renders the record's payload; decodeRecord is its inverse.
func (r walRec) encode() []byte {
	switch r.op {
	case opAppend:
		return encodeAppend(r.items, r.opts)
	case opReindex:
		return encodeReindex()
	default:
		return encodeGrow(r.numV)
	}
}

func encodeGrow(numV int) []byte {
	buf := append(make([]byte, 0, 1+binary.MaxVarintLen64), opGrow)
	return binary.AppendUvarint(buf, uint64(numV))
}

// decodeRecord parses one record payload; ok is false on any malformation.
func decodeRecord(payload []byte) (walRec, bool) {
	if len(payload) == 0 {
		return walRec{}, false
	}
	rec := walRec{op: payload[0]}
	body := payload[1:]
	switch rec.op {
	case opAppend:
		if len(body) < 1 {
			return walRec{}, false
		}
		fl := body[0]
		if fl&flagDefer != 0 {
			rec.opts.OnOutOfOrder = PolicyDefer
		}
		rec.opts.Grow = fl&flagGrow != 0
		body = body[1:]
		count, n := binary.Uvarint(body)
		if n <= 0 {
			return walRec{}, false
		}
		body = body[n:]
		// An item encodes to at least 18 bytes (two 1-byte uvarints + two
		// float64s), so a count the body cannot hold is a lie: reject it
		// before committing the allocation (mirrors ReadNetworkBinary).
		if count > uint64(len(body))/18 {
			return walRec{}, false
		}
		rec.items = make([]Item, 0, count)
		for i := uint64(0); i < count; i++ {
			from, n1 := binary.Uvarint(body)
			if n1 <= 0 || from > math.MaxUint32 {
				return walRec{}, false
			}
			body = body[n1:]
			to, n2 := binary.Uvarint(body)
			if n2 <= 0 || to > math.MaxUint32 {
				return walRec{}, false
			}
			body = body[n2:]
			if len(body) < 16 {
				return walRec{}, false
			}
			t := math.Float64frombits(binary.LittleEndian.Uint64(body[0:8]))
			q := math.Float64frombits(binary.LittleEndian.Uint64(body[8:16]))
			body = body[16:]
			rec.items = append(rec.items, Item{
				From: int32(uint32(from)), To: int32(uint32(to)), Time: t, Qty: q,
			})
		}
		return rec, len(body) == 0
	case opReindex:
		return rec, len(body) == 0
	case opGrow:
		numV, n := binary.Uvarint(body)
		if n <= 0 || numV > math.MaxInt32 || n != len(body) {
			return walRec{}, false
		}
		rec.numV = int(numV)
		return rec, true
	default:
		return walRec{}, false
	}
}
