package tin

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"flownet/internal/par"
)

// The on-disk interaction format is one interaction per line:
//
//	from to time qty
//
// with whitespace-separated integer vertex ids and float time/quantity.
// Lines starting with '#' are comments; a "# vertices N" comment presizes
// the network. Files ending in ".gz" are gzip-compressed.

// WriteNetwork writes the network to w in the interaction text format,
// in canonical interaction order.
func WriteNetwork(w io.Writer, n *Network) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", n.numV); err != nil {
		return err
	}
	// Emit in canonical order so that reloading reproduces the same
	// tie-break order (Ord is re-derived from (time, line order) at load).
	for _, ev := range n.events() {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", ev.From, ev.To, ev.Time, ev.Qty); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// events is Graph.Events for a network: every interaction placed at its
// Ord, which is the order of the text format's lines.
func (n *Network) events() []Event {
	return placeByOrd(n.nextOrd, func(put func(int64, Event)) {
		for e := range n.NumEdges() {
			ed := n.Edge(EdgeID(e))
			for _, ia := range ed.Seq {
				put(ia.Ord, Event{Interaction: ia, From: ed.From, To: ed.To, Edge: EdgeID(e)})
			}
		}
	})
}

// SaveNetwork writes the network to the named file, gzip-compressed if the
// name ends in ".gz". The write is crash-safe: the bytes go to a temporary
// file in the target directory which is renamed into place only after a
// successful flush to disk, so a crash mid-save can never leave a torn
// network file under the target name.
func SaveNetwork(path string, n *Network) error {
	return atomicSave(path, func(f fileWriter) error {
		return saveNetwork(f, strings.HasSuffix(path, ".gz"), n)
	})
}

// SaveNetworkBinary writes the network to the named file in the binary
// snapshot format (see binary.go), gzip-compressed if the name ends in
// ".gz" (like SaveNetwork, so every saved file loads back through the
// sniffing LoadNetwork), with the same crash-safe temp-and-rename
// protocol as SaveNetwork.
func SaveNetworkBinary(path string, n *Network) error {
	return atomicSave(path, func(f fileWriter) error {
		return savePayload(f, strings.HasSuffix(path, ".gz"), func(w io.Writer) error {
			return WriteNetworkBinary(w, n)
		})
	})
}

// atomicSave writes a file via write (which must sync and close its
// argument) into a temporary file next to path, then renames it into place.
// On any failure the temporary file is removed and the previous content of
// path — if any — is left untouched.
func atomicSave(path string, write func(fileWriter) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp makes the file 0600; the rename would silently carry that
	// over, narrowing what a plain os.Create-based save produced. Restore
	// the target's previous mode when overwriting, else the conventional
	// 0644.
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := os.Chmod(tmp, mode); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Directory sync is best-effort: some
	// filesystems refuse to sync directories, and the data is safe either
	// way once the target file's own Sync succeeded.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// fileWriter is the subset of *os.File that saveNetwork needs; tests
// substitute implementations whose Sync or Close fail.
type fileWriter interface {
	io.Writer
	Sync() error
	Close() error
}

// saveNetwork writes n to f in the text format, syncs and closes it.
func saveNetwork(f fileWriter, gz bool, n *Network) error {
	return savePayload(f, gz, func(w io.Writer) error { return WriteNetwork(w, n) })
}

// savePayload runs write against f — through a gzip layer when gz is set —
// then syncs and closes f. A Sync or Close failure after a clean write is
// still reported: a file whose final flush to disk failed is truncated,
// and must not report success.
func savePayload(f fileWriter, gz bool, write func(io.Writer) error) error {
	var w io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		w = zw
	}
	err := write(w)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadNetwork parses the interaction text format. Vertex ids may appear in
// any order; the vertex count is max(id)+1 unless a larger "# vertices N"
// header is present.
//
// The input is cut into blocks of whole lines (scanBlocks), which up to
// GOMAXPROCS goroutines parse at once (par.OrderedFrom); one at a time
// feeds a parsed block into the builder's log, in line order, so edge ids
// and the canonical order are those of a line-by-line read. The vertex
// count is decided after the last line. Fields are split on the separators
// strings.Fields uses, so the accepted language is the one strings.Fields
// defines. An error names the first bad line of the input, or is the
// scanner's or the reader's, whichever comes first in the input; reading
// stops at most 2×GOMAXPROCS blocks past the one that holds it.
func ReadNetwork(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	sc.Split(scanBlocks)
	workers := par.Workers(0)
	// Fed blocks, for reuse: par.OrderedFrom has at most 2×workers out at
	// once, so the pool never fills and no more are ever allocated.
	free := make(chan *textBlock, 2*workers)
	bld := NewBuilder(0)
	declared := -1
	maxID := VertexID(-1)
	lineNo := 0
	var err error
	par.OrderedFrom(workers,
		func() (*textBlock, bool) {
			if !sc.Scan() {
				return nil, false
			}
			var b *textBlock
			select {
			case b = <-free:
			default:
				b = new(textBlock)
			}
			b.text = append(b.text[:0], sc.Bytes()...)
			return b, true
		},
		(*textBlock).parse,
		func(b *textBlock) bool {
			if b.err != nil {
				err = fmt.Errorf("tin: line %d: %v", lineNo+b.errLine, b.err)
				return false
			}
			lineNo += b.lines
			maxID = max(maxID, b.maxID)
			if b.declared >= 0 {
				declared = b.declared
			}
			bld.addChunk(b.recs, b.keys)
			b.recs = nil // the log keeps them
			select {
			case free <- b:
			default:
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	nv := max(int(maxID)+1, declared)
	if nv == 0 {
		return nil, fmt.Errorf("tin: empty network file")
	}
	// The shared ceiling (MaxVertices) applies to the text parser too: a
	// lying "# vertices" header must not demand an unbounded allocation,
	// and every loadable network must survive a binary round trip.
	if nv > MaxVertices {
		return nil, fmt.Errorf("tin: vertex count %d exceeds limit %d", nv, MaxVertices)
	}
	bld.numV = nv
	return bld.Finalize(), nil
}

// textBlockSize bounds the blocks ReadNetwork parses: a block is the whole
// lines that end within its first textBlockSize bytes, or one longer line.
// Tests lower it so that every input crosses block boundaries.
var textBlockSize = 128 << 10

// scanBlocks is the bufio.SplitFunc of ReadNetwork: it returns blocks of
// whole lines, each with its final '\n', and the unterminated last line at
// the end of the input. Since every token ends at a line end, the scanner
// fails on a line too long for its buffer (bufio.ErrTooLong) exactly where
// bufio.ScanLines would.
func scanBlocks(data []byte, atEOF bool) (int, []byte, error) {
	if len(data) < textBlockSize && !atEOF {
		return 0, nil, nil // read on: the block may have room for more lines
	}
	end := bytes.LastIndexByte(data[:min(len(data), textBlockSize)], '\n')
	if end < 0 {
		end = bytes.IndexByte(data, '\n') // a line longer than a block
	}
	switch {
	case end >= 0:
		return end + 1, data[:end+1], nil
	case atEOF && len(data) > 0:
		return len(data), data, nil
	}
	return 0, nil, nil
}

// textBlock is a block of lines and what parsing it found. Its text and
// keys are reused from block to block; its records become a chunk of the
// builder's log.
type textBlock struct {
	text []byte
	// recs are its interactions, self loops left out, as the builder logs
	// them but for their edge and place in its run; keys are their pair
	// keys.
	recs     []logRec
	keys     []int64
	lines    int      // how many lines text holds
	maxID    VertexID // the largest id on a line, self loops included; -1 if none
	declared int      // the count of its last "# vertices" header, or -1
	err      error    // the first bad line's error, without "tin: line N: "
	errLine  int      // that line's number within the block, from 1
}

// textLine is one interaction line.
type textLine struct {
	from, to VertexID
	t, q     float64
}

// parse parses the block's lines, up to the first bad one, and returns b.
func (b *textBlock) parse() *textBlock {
	// Room for a record per line, so that appending never reallocates.
	most := bytes.Count(b.text, []byte{'\n'}) + 1
	b.recs, b.keys = make([]logRec, 0, most), slices.Grow(b.keys[:0], most)
	b.lines, b.maxID, b.declared, b.err = 0, -1, -1, nil
	var f [4]field
	for rest := b.text; len(rest) > 0; {
		end, nf := scanLine(rest, &f)
		line := rest[:end]
		rest = rest[min(end+1, len(rest)):]
		b.lines++
		if nf == 0 {
			continue
		}
		if f[0].text[0] == '#' {
			var nv int
			if _, err := fmt.Sscanf(string(bytes.TrimSpace(line)), "# vertices %d", &nv); err == nil {
				b.declared = nv
			}
			continue
		}
		l, err := parseLine(&f, nf)
		if err != nil {
			b.err, b.errLine = err, b.lines
			return b
		}
		// A self loop is dropped, but its ids still count towards the
		// vertex count.
		b.maxID = max(b.maxID, l.from, l.to)
		if l.from != l.to {
			b.recs = append(b.recs, logRec{time: l.t, qty: l.q})
			b.keys = append(b.keys, pairKey(l.from, l.to))
		}
	}
	return b
}

// field is one field of a line as scanLine found it: its bytes and, if
// they are plain (ASCII digits with at most one '.' among them), the value
// of the digits, how many there are and how many follow the '.'.
type field struct {
	text   []byte
	plain  bool
	v      uint64 // wraps past 19 digits, where it is never used
	digits int
	frac   int // -1 without a '.'
}

// Classes of the bytes of a line: what scanLine does at each.
const (
	inField   = iota
	separator // a separator strings.Fields splits an ASCII line on
	nonASCII  // a line holding one is split by strings.Fields
)

var byteClass = func() (c [256]uint8) {
	for _, s := range "\t\n\v\f\r " {
		c[s] = separator
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = nonASCII
	}
	return c
}()

// scanLine splits the line at the start of text — up to its '\n' or the end
// of text — into fields exactly as strings.Fields would, stores the first
// len(f) of them in f and returns the line's length and how many fields it
// has. An ASCII line is split in one pass, which also reads the digits of
// each field as they go by; a line with any other byte is handed to
// strings.Fields, whose separators are then Unicode's white space.
//
// bytes.Fields splits the same way but allocates a slice per line: loading
// the 1.85 M-interaction Bitcoin corpus on a shared 2-vCPU Xeon VM, it
// allocated 153 B per interaction instead of 57, and the load took a
// median 1.51 s instead of 1.09 s.
func scanLine(text []byte, f *[4]field) (end, nf int) {
	i := 0
	for i < len(text) {
		// A space, then a digit, is what most bytes are: each is told by
		// one comparison.
		if c := text[i]; c == ' ' {
			i++
			continue
		} else if c-'0' > 9 {
			switch {
			case c == '\n':
				return i, nf
			case byteClass[c] == separator:
				i++
				continue
			case byteClass[c] == nonASCII:
				return splitUnicode(text, f)
			}
		}
		start, v, digits, frac, plain := i, uint64(0), 0, -1, true
		for ; i < len(text); i++ {
			c := text[i]
			if d := c - '0'; d <= 9 {
				v = v*10 + uint64(d)
				digits++
			} else if byteClass[c] != inField {
				break
			} else if c == '.' && frac < 0 {
				frac = digits
			} else {
				plain = false
			}
		}
		if frac >= 0 {
			frac = digits - frac
		}
		if nf < len(f) {
			// Field by field: a composite literal is built on the stack
			// and copied, which stalls on its own stores.
			p := &f[nf]
			p.text, p.plain, p.v, p.digits, p.frac = text[start:i], plain, v, digits, frac
		}
		nf++
	}
	return i, nf
}

// splitUnicode is scanLine for a line that holds a byte outside ASCII.
func splitUnicode(text []byte, f *[4]field) (end, nf int) {
	end = bytes.IndexByte(text, '\n')
	if end < 0 {
		end = len(text)
	}
	fields := strings.Fields(string(text[:end]))
	for k := 0; k < len(fields) && k < len(f); k++ {
		f[k] = field{text: []byte(fields[k])}
	}
	return end, len(fields)
}

// parseLine parses an interaction line of nf fields, the first four in f.
// Its errors leave out the line number, which only the block's reader
// knows.
func parseLine(f *[4]field, nf int) (textLine, error) {
	if nf != len(f) {
		return textLine{}, fmt.Errorf("want 4 fields, got %d", nf)
	}
	from, ok0 := f[0].plainID()
	to, ok1 := f[1].plainID()
	t, ok2 := f[2].plainNumber()
	q, ok3 := f[3].plainNumber()
	if ok0 && ok1 && ok2 && ok3 {
		// Plain fields are valid ids, times and quantities.
		return textLine{VertexID(from), VertexID(to), t, q}, nil
	}
	return convertLine(f)
}

// convertLine is parseLine for a line with a field that is not plain: each
// field such is converted by strconv, in order, so the first bad field's
// error is reported.
func convertLine(f *[4]field) (textLine, error) {
	from, err := f[0].id()
	if err != nil {
		return textLine{}, fmt.Errorf("bad from id: %v", err)
	}
	to, err := f[1].id()
	if err != nil {
		return textLine{}, fmt.Errorf("bad to id: %v", err)
	}
	t, err := f[2].number()
	if err != nil {
		return textLine{}, fmt.Errorf("bad time: %v", err)
	}
	q, err := f[3].number()
	if err != nil {
		return textLine{}, fmt.Errorf("bad quantity: %v", err)
	}
	if from < 0 || to < 0 {
		return textLine{}, fmt.Errorf("negative vertex id")
	}
	if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return textLine{}, fmt.Errorf("invalid quantity %g", q)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return textLine{}, fmt.Errorf("invalid time %g", t)
	}
	return textLine{VertexID(from), VertexID(to), t, q}, nil
}

// id is strconv.ParseInt(f.text, 10, 32).
func (f *field) id() (int64, error) {
	if v, ok := f.plainID(); ok {
		return v, nil
	}
	// string(f.text) does not allocate here: strconv copies what it keeps.
	return strconv.ParseInt(string(f.text), 10, 32)
}

// plainID returns the value of a field of 1 to 9 plain digits and no '.',
// which cannot overflow a 32-bit ParseInt.
func (f *field) plainID() (int64, bool) {
	return int64(f.v), f.plain && f.frac < 0 && f.digits > 0 && f.digits <= 9
}

// number is strconv.ParseFloat(f.text, 64).
func (f *field) number() (float64, error) {
	if v, ok := f.plainNumber(); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(f.text), 64)
}

// plainNumber returns the value of a plain field of 1 to 15 digits, k of
// them after its '.': the digits are below 2^52 and 10^k is a float64
// exactly, so their correctly rounded quotient is the value ParseFloat
// returns, by the same division (its exact path; Clinger, "How to Read
// Floating Point Numbers Accurately", PLDI 1990).
func (f *field) plainNumber() (float64, bool) {
	if !f.plain || f.digits == 0 || f.digits > 15 {
		return 0, false
	}
	return float64(f.v) / pow10[max(f.frac, 0)], true
}

// pow10 holds 10^k for the k a plain field converted directly can have,
// each exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// LoadNetwork reads a network from the named file, transparently
// decompressing ".gz" files and sniffing the format: files starting with
// the binary magic load through the binary codec (ReadNetworkBinary),
// everything else through the text parser (ReadNetwork).
func LoadNetwork(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	return sniffNetwork(r)
}

// sniffNetwork dispatches a decompressed network stream to the binary or
// the text parser by peeking at the magic. No valid text file can start
// with the binary magic ("FNTB" parses as neither comment nor integer), so
// the dispatch is unambiguous.
func sniffNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		return ReadNetworkBinary(br)
	}
	return ReadNetwork(br)
}
