package tin

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func ioTestNetwork() *Network {
	b := NewBuilder(5)
	b.AddInteraction(0, 1, 2, 5)
	b.AddInteraction(0, 1, 2, 3) // duplicate timestamp: exercises tie-break order
	b.AddInteraction(1, 2, 3, 4)
	b.AddInteraction(2, 3, 4.5, 2.25)
	b.AddInteraction(3, 4, 9, 1)
	b.AddInteraction(2, 0, 6, 5)
	return b.Finalize()
}

func sameNetwork(t *testing.T, a, b *Network) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		a.NumInteractions() != b.NumInteractions() {
		t.Fatalf("shape differs: %+v vs %+v", a.Stats(), b.Stats())
	}
	for e := 0; e < a.NumEdges(); e++ {
		ea := a.Edge(EdgeID(e))
		id, ok := b.HasEdge(ea.From, ea.To)
		if !ok {
			t.Fatalf("edge %d->%d missing after reload", ea.From, ea.To)
		}
		eb := b.Edge(id)
		if len(ea.Seq) != len(eb.Seq) {
			t.Fatalf("edge %d->%d: %d vs %d interactions", ea.From, ea.To, len(ea.Seq), len(eb.Seq))
		}
		for i := range ea.Seq {
			if ea.Seq[i] != eb.Seq[i] { // includes Ord: canonical order must survive
				t.Fatalf("edge %d->%d interaction %d: %+v vs %+v", ea.From, ea.To, i, ea.Seq[i], eb.Seq[i])
			}
		}
	}
}

// TestSaveLoadRoundTrip covers both the plain and the gzip path, checking
// that the canonical interaction order (tie-breaks included) survives.
func TestSaveLoadRoundTrip(t *testing.T) {
	n := ioTestNetwork()
	for _, name := range []string{"net.txt", "net.txt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveNetwork(path, n); err != nil {
			t.Fatalf("SaveNetwork(%s): %v", name, err)
		}
		m, err := LoadNetwork(path)
		if err != nil {
			t.Fatalf("LoadNetwork(%s): %v", name, err)
		}
		sameNetwork(t, n, m)
	}
}

// failingFile wraps an in-memory file and fails on demand, standing in for
// a file whose final flush to disk fails.
type failingFile struct {
	bytes.Buffer
	syncErr  error
	closeErr error
	closed   bool
}

func (f *failingFile) Sync() error { return f.syncErr }
func (f *failingFile) Close() error {
	f.closed = true
	return f.closeErr
}

// TestSaveNetworkPropagatesCloseError is the regression test for the
// silently-dropped Close error: a truncated file must not report success.
func TestSaveNetworkPropagatesCloseError(t *testing.T) {
	n := ioTestNetwork()
	wantClose := errors.New("close failed: disk full")
	wantSync := errors.New("sync failed")

	f := &failingFile{closeErr: wantClose}
	if err := saveNetwork(f, false, n); !errors.Is(err, wantClose) {
		t.Errorf("plain path: err=%v, want the Close error", err)
	}
	if !f.closed {
		t.Errorf("file was not closed")
	}

	f = &failingFile{closeErr: wantClose}
	if err := saveNetwork(f, true, n); !errors.Is(err, wantClose) {
		t.Errorf("gzip path: err=%v, want the Close error", err)
	}

	f = &failingFile{syncErr: wantSync, closeErr: wantClose}
	if err := saveNetwork(f, false, n); !errors.Is(err, wantSync) {
		t.Errorf("sync+close failure: err=%v, want the Sync error (first failure wins)", err)
	}
	if !f.closed {
		t.Errorf("file leaked after Sync failure")
	}

	f = &failingFile{}
	if err := saveNetwork(f, false, n); err != nil {
		t.Errorf("clean save: %v", err)
	}
	if f.Len() == 0 {
		t.Errorf("clean save wrote nothing")
	}
}

// TestReadNetworkRejectsInvalidInput: the text parser must error — never
// panic, never over-allocate — on hostile numeric fields, mirroring the
// binary reader's validation (pinned by FuzzLoadNetwork).
func TestReadNetworkRejectsInvalidInput(t *testing.T) {
	for name, input := range map[string]string{
		"nan qty":       "0 1 1 nan\n",
		"inf qty":       "0 1 1 inf\n",
		"nan time":      "0 1 nan 1\n",
		"inf time":      "0 1 -inf 1\n",
		"huge header":   "# vertices 99999999999\n0 1 1 1\n",
		"header at cap": fmt.Sprintf("# vertices %d\n0 1 1 1\n", MaxVertices+1),
	} {
		if _, err := ReadNetwork(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadNetwork accepted %q", name, input)
		}
	}
}

// validLines returns valid interaction lines, at least size bytes of them.
func validLines(size int) string {
	const line = "0 1 2 1.5\n"
	return strings.Repeat(line, size/len(line)+1)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadNetworkStopsAtTheFirstBadLine: a bad line early in a large input
// is reported by its number, and the reader stops soon after it — within
// two of the scanner's 1 MiB buffers and two 128 KiB blocks per parsing
// goroutine, not at the end of the input.
func TestReadNetworkStopsAtTheFirstBadLine(t *testing.T) {
	bound := 2<<20 + runtime.GOMAXPROCS(0)<<18
	r := &countingReader{r: strings.NewReader("0 1 1 1\nbad line\n" + validLines(bound+4<<20))}
	if _, err := ReadNetwork(r); fmt.Sprint(err) != "tin: line 2: want 4 fields, got 2" {
		t.Fatalf("ReadNetwork: %v, want the line 2 error", err)
	}
	if r.n > bound {
		t.Errorf("read %d bytes after a bad line 2, want at most %d", r.n, bound)
	}
}

// TestReadNetworkLineLimit: an error comes from whichever of a bad line and
// a line over the scanner's limit (16 MiB with its line end) is first in
// the input.
func TestReadNetworkLineLimit(t *testing.T) {
	tooLong := "0 1 2 " + strings.Repeat(" ", 1<<24) + "3\n"
	if _, err := ReadNetwork(strings.NewReader("0 1 1 1\n" + tooLong + "bad\n")); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a line over the limit before a bad line: %v, want %v", err, bufio.ErrTooLong)
	}
	if _, err := ReadNetwork(strings.NewReader("0 1 1 1\nbad\n" + tooLong)); fmt.Sprint(err) != "tin: line 2: want 4 fields, got 1" {
		t.Errorf("a bad line before a line over the limit: %v, want the line 2 error", err)
	}
}

// TestReadNetworkReportsTheReadersError: a reader that fails is reported
// with its own error, not with the parse error of a bad line it never
// delivered.
func TestReadNetworkReportsTheReadersError(t *testing.T) {
	errDisk := errors.New("disk failed")
	good := validLines(1 << 20)
	r := io.MultiReader(strings.NewReader(good), iotest.ErrReader(errDisk), strings.NewReader("bad\n"))
	if _, err := ReadNetwork(r); !errors.Is(err, errDisk) {
		t.Errorf("ReadNetwork: %v, want the reader's %v", err, errDisk)
	}
}

// TestReadNetworkLeavesNoGoroutine: whether a read succeeds or fails, and
// however, every goroutine it started has ended by the time the goroutine
// count is next looked at.
func TestReadNetworkLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	good := validLines(1 << 19)
	for name, input := range map[string]func() io.Reader{
		"valid":    func() io.Reader { return strings.NewReader(good) },
		"bad line": func() io.Reader { return strings.NewReader(good + "bad\n" + good) },
		"reader error": func() io.Reader {
			return io.MultiReader(strings.NewReader(good), iotest.ErrReader(io.ErrUnexpectedEOF))
		},
		"line too long": func() io.Reader {
			return strings.NewReader(good + strings.Repeat(" ", 1<<24) + "\n" + good)
		},
	} {
		_, err := ReadNetwork(input())
		if (err == nil) != (name == "valid") {
			t.Fatalf("%s: ReadNetwork: %v", name, err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after ReadNetwork returned, %d before", name, runtime.NumGoroutine(), base)
			}
		}
	}
}

// TestSaveNetworkIsAtomic is the crash-safety regression test: a save that
// fails mid-write must leave the previous file byte-identical and no
// temporary litter — the writer goes to a temp file that is only renamed
// into place after a successful flush.
func TestSaveNetworkIsAtomic(t *testing.T) {
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

	// A failing writer stands in for the disk filling up / the process
	// dying mid-save: atomicSave must abandon the temp file untouched.
	boom := errors.New("disk full")
	if err := atomicSave(path, func(f fileWriter) error {
		f.Write([]byte("torn ")) // partial bytes reached the temp file
		f.Close()
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("atomicSave err = %v, want the injected write error", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the target file:\nbefore %q\nafter  %q", before, after)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "net.txt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp litter left behind after failed save: %v", names)
	}
	if m, err := LoadNetwork(path); err != nil {
		t.Fatalf("target unreadable after failed save: %v", err)
	} else {
		sameNetwork(t, n, m)
	}
}

// TestParseFloatMatchesStrconv holds the conversion of a time or quantity
// field, whose plain decimals of at most 15 digits skip strconv, to
// strconv.ParseFloat bit for bit: the same value, sign of zero included,
// and the same error.
func TestParseFloatMatchesStrconv(t *testing.T) {
	var f [4]field
	scan := func(s string) *field {
		if s == "" {
			// No line scans as an empty field, but its conversion still
			// fails as strconv's does.
			return &field{}
		}
		if _, nf := scanLine([]byte(s), &f); nf != 1 {
			t.Fatalf("%q scans as %d fields", s, nf)
		}
		return &f[0]
	}
	check := func(s string) {
		got, err := scan(s).number()
		want, wantErr := strconv.ParseFloat(s, 64)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
			math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("number(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
	direct := []string{
		"123456789012345", "12345678.9012345", ".123456789012345", "123456789012345.",
		"999999999999999", "0.99999999999999", "000000000000001", "0001.250", "007.5",
		"5.", ".5", "0.00", "0", "0.", ".0", "10.0", "2.62", "0.75", "8.04",
		"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9",
	}
	for _, s := range direct {
		if _, ok := scan(s).plainNumber(); !ok {
			t.Fatalf("%q is not converted directly", s)
		}
		check(s)
	}
	for _, s := range []string{
		"1234567890123456", "1234567890.123456", ".1234567890123456", "0000000000000001",
		"9007199254740993", "0.30000000000000004", "-0.0", "-1.5", "+0.5", "1.5e3",
		"1e-3", "0x1p-2", "1_0", "inf", "NaN", "", ".", "..5", "1..5", "1.5.", "1,5", "٣",
	} {
		if _, ok := scan(s).plainNumber(); ok {
			t.Fatalf("%q is converted directly", s)
		}
		check(s)
	}
	// A million random decimals of 1 to 17 digits, a '.' anywhere or
	// nowhere, leading and trailing zeros frequent.
	r := rand.New(rand.NewSource(1))
	var b []byte
	for range 1_000_000 {
		b = randomDecimal(r, b[:0], 1+r.Intn(17))
		check(string(b))
	}
}

// randomDecimal appends nd random digits to b, a quarter of them zeros,
// with a '.' inserted anywhere among them or nowhere.
func randomDecimal(r *rand.Rand, b []byte, nd int) []byte {
	at := len(b)
	// One draw gives the digits, another which of them are zeros.
	x, zero := r.Uint64(), r.Uint64()
	for range nd {
		d := byte('0' + x%10)
		if zero&3 == 0 {
			d = '0'
		}
		b = append(b, d)
		x, zero = x/10, zero>>2
	}
	if dot := r.Intn(nd + 2); dot <= nd {
		b = slices.Insert(b, at+dot, '.')
	}
	return b
}

// lineAgainstRef parses one line through a block, as ReadNetwork does, and
// holds the outcome to refParseLine: the same error text, or the same ids
// and the same time and quantity bits (a self loop is dropped, so only its
// id is seen), or a blank line or a comment for both. It returns what
// differs, or "".
func lineAgainstRef(b *textBlock, line string) string {
	want, kind, wantErr := refParseLine(line)
	b.text = append(b.text[:0], line...)
	b.parse()
	switch {
	case wantErr != nil || b.err != nil:
		if fmt.Sprint(b.err) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("line %q: error %v, reference %v", line, b.err, wantErr)
		}
	case kind != refInteraction:
		if b.maxID != -1 || len(b.recs) != 0 {
			return fmt.Sprintf("line %q: parsed as an interaction, reference: blank or comment", line)
		}
	case want.from == want.to:
		if b.maxID != want.from || len(b.recs) != 0 {
			return fmt.Sprintf("line %q: max id %d, %d records; reference: self loop at %d", line, b.maxID, len(b.recs), want.from)
		}
	case len(b.recs) != 1:
		return fmt.Sprintf("line %q: %d records, reference %+v", line, len(b.recs), want)
	default:
		got := b.recs[0]
		if b.keys[0] != pairKey(want.from, want.to) ||
			math.Float64bits(got.time) != math.Float64bits(want.t) || math.Float64bits(got.qty) != math.Float64bits(want.q) {
			return fmt.Sprintf("line %q: key %#x, %+v; reference %+v", line, b.keys[0], got, want)
		}
	}
	return ""
}

// TestScanLineMatchesFields holds the one-pass line scanner and its
// conversions to strings.Fields and strconv (refParseLine), on a table of
// the lines it must decline to convert directly or split on its own, and
// on a million random lines (a tenth of them under -race).
func TestScanLineMatchesFields(t *testing.T) {
	b := new(textBlock)
	for _, line := range []string{
		"0 1 2 3", "  0 1 2 3", "0 1 2 3  ", "\t0 1 2 3\f",
		"0\t\t1\v\v\v2\f \f3", "0 1 2 3\r", "0\r1 2 3",
		"", "   ", "\r", "# vertices 7", "  # a comment 1 2 3", "#", "0 # 1 2",
		"0 1 2", "0 1 2 3 4", "0 1 2 3 #",
		"999999999 1 2 3", "1000000000 1 2 3", "2147483647 1 2 3", "2147483648 1 2 3",
		"0000000001 2 3 4", "1 0000000002 3 4", "-0 1 2 3", "+1 2 3 4", "-1 2 3 4", "1.0 2 3 4", "1. 2 3 4",
		"0 1 123456789012345 1", "0 1 1234567890123456 1", "0 1 9007199254740993 1", "0 1 0.1234567890123456 1",
		"0 1 1e3 1", "0 1 1E3 1", "0 1 1.5e-3 1", "0 1 -1.5 1", "0 1 +1.5 1", "0 1 2 -0", "0 1 2 -1",
		"0 1 . 1", "0 1 2 .", "0 1 .. 1", "0 1 1..5 1", "0 1 1.5. 1", "0 1 .5 5.",
		"0 1 inf 1", "0 1 2 NaN", "0 1 0x10 1", "0 1 1_000 1", "0x1 1 2 3", "1_0 1 2 3",
		"0\u00a01 2 3", "0 1 2\u00853", "0 1 2 3\x85", "\x850 1 2 3", "0 1 2 3 é", "é", "0 1 2 3\u00a0",
		"\u00a0# vertices 3", "5 5 2 3", "5 5 x 3",
	} {
		if diff := lineAgainstRef(b, line); diff != "" {
			t.Fatal(diff)
		}
	}
	r := rand.New(rand.NewSource(2))
	var line []byte
	lines := 1_000_000
	if raceEnabled {
		lines /= 10
	}
	for range lines {
		line = randomLine(r, line[:0])
		if diff := lineAgainstRef(b, string(line)); diff != "" {
			t.Fatal(diff)
		}
	}
}

// randomLine appends a random line of mostly 4 fields to b: ids and
// decimals with digit runs on both sides of what is converted directly,
// now and then a sign, an exponent, a letter or a lone '.', separated by
// runs of every ASCII separator, blanks at either end, and once in a while
// a byte outside ASCII.
func randomLine(r *rand.Rand, b []byte) []byte {
	const seps = "  \t\v\f\r"
	sep := func() {
		for k := 1 + r.Intn(2); k > 0; k-- {
			b = append(b, seps[r.Intn(len(seps))])
		}
	}
	if r.Intn(10) == 0 {
		sep()
	}
	nf := 4
	if r.Intn(20) == 0 {
		nf = 3 + 2*r.Intn(2)
	}
	for k := range nf {
		if k > 0 {
			sep()
		}
		if r.Intn(30) == 0 {
			b = append(b, "+-"[r.Intn(2)])
		}
		if k < 2 {
			b = randomDecimal(r, b, 1+r.Intn(10))
			if r.Intn(10) > 0 {
				b = slices.DeleteFunc(b, func(c byte) bool { return c == '.' })
			}
		} else {
			b = randomDecimal(r, b, r.Intn(18))
		}
		switch r.Intn(60) {
		case 0:
			b = append(b, 'e')
			b = strconv.AppendInt(b, int64(r.Intn(40)-20), 10)
		case 1:
			b = append(b, "x_."[r.Intn(3)])
		case 2:
			b = append(b, []string{"\u00a0", "\u0085", "\x85", "é"}[r.Intn(4)]...)
		}
	}
	if r.Intn(10) == 0 {
		sep()
	}
	return b
}
