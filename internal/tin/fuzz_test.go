package tin

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refReadNetwork is the text reader written the plain way: every line
// through refParseLine, every parsed line buffered, and the builder filled
// once the vertex count is known. It also returns the reference layout of
// the lines (buildRef), which owes nothing to the builder's.
// FuzzReadNetwork holds ReadNetwork, which parses lines in place straight
// into the builder, to both.
func refReadNetwork(r io.Reader) (*Builder, *refModel, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var lines []textLine
	declared := -1
	maxID := VertexID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		l, kind, err := refParseLine(sc.Text())
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("tin: line %d: %v", lineNo, err)
		case kind == refBlank:
			continue
		case kind == refComment:
			var nv int
			if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "# vertices %d", &nv); err == nil {
				declared = nv
			}
			continue
		}
		lines = append(lines, l)
		maxID = max(maxID, l.from, l.to)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	nv := max(int(maxID)+1, declared)
	if nv == 0 {
		return nil, nil, fmt.Errorf("tin: empty network file")
	}
	if nv > MaxVertices {
		return nil, nil, fmt.Errorf("tin: vertex count %d exceeds limit %d", nv, MaxVertices)
	}
	b := NewBuilder(nv)
	var items []refItem
	for _, l := range lines {
		if b.AddInteraction(l.from, l.to, l.t, l.q) {
			items = append(items, refItem{from: l.from, to: l.to, time: l.t, qty: l.q})
		}
	}
	return b, buildRef(nv, items), nil
}

// What a line of the text format is, by refParseLine.
const (
	refInteraction = iota
	refBlank
	refComment
)

// refParseLine parses one line (without its '\n') the plain way:
// strings.TrimSpace, strings.Fields, and strconv on every field. Its error
// leaves out the line number.
func refParseLine(txt string) (textLine, int, error) {
	txt = strings.TrimSpace(txt)
	switch {
	case txt == "":
		return textLine{}, refBlank, nil
	case strings.HasPrefix(txt, "#"):
		return textLine{}, refComment, nil
	}
	f := strings.Fields(txt)
	if len(f) != 4 {
		return textLine{}, 0, fmt.Errorf("want 4 fields, got %d", len(f))
	}
	from, err := strconv.ParseInt(f[0], 10, 32)
	if err != nil {
		return textLine{}, 0, fmt.Errorf("bad from id: %v", err)
	}
	to, err := strconv.ParseInt(f[1], 10, 32)
	if err != nil {
		return textLine{}, 0, fmt.Errorf("bad to id: %v", err)
	}
	t, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return textLine{}, 0, fmt.Errorf("bad time: %v", err)
	}
	q, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return textLine{}, 0, fmt.Errorf("bad quantity: %v", err)
	}
	if from < 0 || to < 0 {
		return textLine{}, 0, fmt.Errorf("negative vertex id")
	}
	if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return textLine{}, 0, fmt.Errorf("invalid quantity %g", q)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return textLine{}, 0, fmt.Errorf("invalid time %g", t)
	}
	return textLine{VertexID(from), VertexID(to), t, q}, refInteraction, nil
}

// FuzzReadNetwork holds ReadNetwork to refReadNetwork (checkReadNetwork).
func FuzzReadNetwork(f *testing.F) {
	for _, seed := range []string{
		"0 1 1.5 2.5\n1 2 3 4\n",
		"",
		"0 1 1 1\n0 1 1 1\n0 1 1 1\n",
		"3 3 5 5\n",             // self loop: ignored, but counts towards the vertex count
		"0 1 -3 4\n2 1 -7 1\n",  // negative times are legal, and out of order
		"not a line\n",          // wrong field count
		"0\v1\f2\t3\r\n1 2 3 4", // every ASCII separator; no final newline
		"0\u00a01\u00a02 3\n",   // U+00A0 separates only as Unicode white space
		"0 1 2\u00853\n",        // so does U+0085
		"0 1 2 3\x85\n",         // a bare 0x85 byte is not a separator
		"\x850 1 2 3\n",         // nor trimmed away as one
		"+1 2 3 4\n",            // a sign ParseInt takes
		"1_0 2 3 4\n",           // an underscore it does not
		"0x1 2 3 4\n",           // nor a base prefix, which ParseFloat takes
		"1 2 0x1p-2 1_0\n",      // with an exponent, but no underscore without one
		"0 1 nan 1\n0 1 1 inf\n",
		"# vertices 10\n0 1 1 1\n", // a header above max id + 1
		"0 5 1 1\n# vertices 2\n",  // a header below it, after the lines
		"#vertices 9\n# vertices x\n1 0 1 1\n",
		"0 1 1 1\n1 0 0 1\n2 1 1 2\n1 2 1 1\n", // time ties across edges
		"0 1 1 1\n1 2 2 2\n2 3 3 3\n3 4 x 4\n", // a bad line in a later block
		"# vertices 9\n0 1 1 1\n1 2 2 2\n# vertices 7\n2 3 3 3\n", // the last header counts
		"0 1 1 1\r\n1 2 2 2\r\n\r\n2 0 3 3\r\n",                   // CRLF line ends
		"0 1 123456789012345 9999999999999999\n0001 2 1e3 0\n",    // digit runs at and past the direct conversion's limits
		"999999999 1 1 1\n2147483648 1 1 1\n",
		// Logs in time order with ties, and out of it, that span several
		// chunks of three records.
		"0 1 1 1\n0 1 1 2\n1 2 1 3\n0 1 2 4\n1 2 2 5\n0 1 3 6\n0 1 3 7\n",
		"0 1 3 1\n0 1 1 2\n1 2 1 3\n0 1 3 4\n1 2 0 5\n0 1 1 6\n0 1 2 7\n",
		// Decimals: leading and trailing zeros, 15 digits (the direct
		// conversion), 16 and more (strconv), and what is not a plain
		// decimal.
		"0 1 1.5 .5\n1 2 5. 0.00\n2 0 0001.250 10.0\n",
		"0 1 12345678.9012345 .123456789012345\n1 2 1.23456789012345 123456789012345.\n",
		"0 1 1234567890.123456 .1234567890123456\n1 2 9007199254740993.0 0.30000000000000004\n",
		"0 1 1..5 1\n", "0 1 . 1\n", "0 1 -0.0 .5e1\n", "0 1 1.5e3 +0.5\n",
		// Lines the one-pass scanner declines to convert directly or to
		// split on its own.
		"  0 1 2 3  \n\t1 2 3 4\f\n", "0\t\t1\v\v\v2\f\f3\n0 \t1\v 2\f 3\n", "0 1 2 3\r\n1 2 3 4\r\n",
		"0 1000000000 2 3\n", "1000000000 1 2 3\n", "0 1 1234567890123456 2.5\n", "0 1 2 .1234567890123456\n",
		"0 1 1e5 2\n", "0 1 2 3E-2\n", "-1 2 3 4\n", "0 +1 -2 +3\n",
		"0 1 . 1\n", "0 1 1.2.3 4\n", "0 1 .5 5.\n",
		"0 1 2\u00a03\n", "0 1 2é 3\n", "0 1 2 3\x85\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if largeVertexCount(data) {
			t.Skip()
		}
		checkReadNetwork(t, data)
	})
}

// TestReadNetworkLongLine runs FuzzReadNetwork's check on a line longer
// than the scanner's first buffer. It is not a fuzz seed: every mutation of
// a 1 MiB input is a 1 MiB execution, and the fuzzer spends a minute
// minimizing each one that finds new coverage.
func TestReadNetworkLongLine(t *testing.T) {
	checkReadNetwork(t, "0 "+strings.Repeat(" ", 1<<20)+"1 2 3\n")
}

// checkReadNetwork holds ReadNetwork to refReadNetwork on data: the same
// decision with the same error, and on accept the same network, byte for
// byte in the binary format, with every accessor as the reference layout
// has it (checkAgainstRef). ReadNetwork is run three times: with its
// blocks of lines at their size, at a few bytes, so that every line of a
// multi-line input crosses a block boundary and its blocks go through the
// parsers in parallel, and at a few bytes on at least two Ps
// (withSmallChunks), so that Finalize scatters the log's chunks, which are
// the blocks' records, in parallel. What it accepts must also survive the
// text writer. The reference builder is finalized twice: Finalize only
// reads the log, so both networks must be the same, byte for byte.
func checkReadNetwork(t *testing.T, data string) {
	t.Helper()
	refB, model, refErr := refReadNetwork(strings.NewReader(data))
	var ref *Network
	if refErr == nil {
		ref = refB.Finalize()
		if !bytes.Equal(snapshotBytes(t, refB.Finalize()), snapshotBytes(t, ref)) {
			t.Fatal("a second Finalize of the reference builder differs from the first")
		}
	}
	var n *Network
	for _, run := range []struct {
		size  int
		small bool
	}{{textBlockSize, false}, {5, false}, {5, true}} {
		var err error
		read := func() { n, err = readNetworkInBlocks(data, run.size) }
		if run.small {
			withSmallChunks(read)
		} else {
			read()
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("ReadNetwork with %d-byte blocks (small chunks %v): error %v, reference %v", run.size, run.small, err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(snapshotBytes(t, n), snapshotBytes(t, ref)) {
			t.Fatalf("ReadNetwork with %d-byte blocks (small chunks %v) and the reference disagree: %+v vs %+v", run.size, run.small, n.Stats(), ref.Stats())
		}
		checkAgainstRef(t, n, model)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, n); err != nil {
		t.Fatalf("WriteNetwork after successful read: %v", err)
	}
	m, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatalf("re-read of written network: %v", err)
	}
	if m.NumEdges() != n.NumEdges() || m.NumInteractions() != n.NumInteractions() {
		t.Fatalf("round trip changed shape: %+v vs %+v", m.Stats(), n.Stats())
	}
}

// readNetworkInBlocks is ReadNetwork on data with textBlockSize set to
// size for the call.
func readNetworkInBlocks(data string, size int) (*Network, error) {
	defer func(was int) { textBlockSize = was }(textBlockSize)
	textBlockSize = size
	return ReadNetwork(strings.NewReader(data))
}

// withSmallChunks runs f with the builder's log in chunks of three records
// and at least two Ps, so that a log of a few records spans chunks and
// Finalize scatters them on more than one goroutine.
func withSmallChunks(f func()) {
	defer func(was int) { logChunk = was }(logChunk)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	logChunk = 3
	f()
}

// largeVertexCount reports whether data would load as a network of more
// than 1<<16 vertices, by a vertex id or a "# vertices" header the readers
// accept. Such counts are legal, but the adjacency offsets cost an
// execution up to hundreds of MB, and the readers treat an id the same way
// whatever its size (TestReadNetworkRejectsInvalidInput pins the limit).
// Anything else stays fuzzed: times, quantities, ids that fail the 32-bit
// parse, and counts above MaxVertices, which are rejected before anything
// is allocated.
func largeVertexCount(data string) bool {
	large := func(v int64) bool { return v > 1<<16 && v <= MaxVertices }
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			var nv int
			if _, err := fmt.Sscanf(line, "# vertices %d", &nv); err == nil && large(int64(nv)) {
				return true
			}
			continue
		}
		f := strings.Fields(line)
		for _, id := range f[:min(len(f), 2)] {
			if v, err := strconv.ParseInt(id, 10, 32); err == nil && large(v+1) {
				return true
			}
		}
	}
	return false
}

// FuzzExtractSubgraph checks that extraction on arbitrary parsed networks
// always yields valid DAG flow instances.
func FuzzExtractSubgraph(f *testing.F) {
	f.Add("0 1 1 5\n1 0 2 4\n1 2 3 3\n2 0 4 2\n", uint16(0))
	f.Add("0 1 1 1\n1 2 2 1\n2 3 3 1\n3 0 4 1\n", uint16(3))
	f.Fuzz(func(t *testing.T, data string, seed uint16) {
		n, err := ReadNetwork(strings.NewReader(data))
		if err != nil {
			return
		}
		v := VertexID(int(seed) % n.NumVertices())
		g, ok := n.ExtractSubgraph(v, DefaultExtractOptions())
		if !ok {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("extracted subgraph invalid: %v\n%s", err, g)
		}
		if !g.IsDAG() {
			t.Fatalf("extracted subgraph cyclic:\n%s", g)
		}
	})
}
