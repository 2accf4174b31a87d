package tin

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// This file checks versioned networks — base + tail, derived by append —
// against networks rebuilt from scratch. A finalized network is an
// immutable value: whatever sequence of appends, growths, merges, folds
// and reloads produced a version, it must be indistinguishable from
// Finalize over the same interactions in the same order, and no later
// derivation may change what an earlier version answers.

// rebuildFrom finalizes a fresh network from an insertion log.
func rebuildFrom(numV int, items []refItem) *Network {
	b := NewBuilder(numV)
	for _, it := range items {
		b.AddInteraction(it.from, it.to, it.time, it.qty)
	}
	return b.Finalize()
}

func snapshotBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, n); err != nil {
		t.Fatalf("WriteNetworkBinary: %v", err)
	}
	return buf.Bytes()
}

// checkVersion compares n with the rebuild of its insertion log on every
// accessor, on extraction (seed, pair, windowed, footprint on and off) and
// on its snapshot bytes.
func checkVersion(t *testing.T, n *Network, numV int, items []refItem, deep bool) {
	t.Helper()
	checkAgainstRef(t, n, buildRef(numV, slices.Clone(items)))
	if !deep {
		return
	}
	fresh := rebuildFrom(numV, items)
	if n.MaxTime() != fresh.MaxTime() {
		t.Fatalf("MaxTime %v, rebuild has %v", n.MaxTime(), fresh.MaxTime())
	}
	if a, b := n.AvgQty(), fresh.AvgQty(); a < b*(1-1e-9) || a > b*(1+1e-9) {
		t.Fatalf("AvgQty %v, rebuild has %v", a, b)
	}
	for src := 0; src < numV; src++ {
		for snk := 0; snk < numV; snk++ {
			q := Query{Source: VertexID(src), Sink: VertexID(snk), ExtractOptions: DefaultExtractOptions()}
			rg, rok, rfoot := refExtract(fresh, q)
			checkQuery(t, q, rg, rok, rfoot, n)
			q.Window = &TimeWindow{From: 64, To: 192}
			checkQuery(t, q, rg, rok, rfoot, n)
		}
	}
	if !bytes.Equal(snapshotBytes(t, n), snapshotBytes(t, fresh)) {
		t.Fatal("snapshot bytes differ from the rebuild's")
	}
}

// FuzzVersionedNetworkEquivalence drives random op sequences — append to
// an existing edge, open a new edge, grow vertices, merge late items, force
// a fold, save and load, save and mmap — and after every step requires (a)
// the current version to equal a from-scratch rebuild, (b) every earlier
// version the harness kept to still equal its own rebuild, and (c) the
// returned delta to be the distinct, ascending ids of the edges that are
// new or grew.
func FuzzVersionedNetworkEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 10, 3, 1, 2, 20, 4, 0xff, 0, 0, 1, 5, 1, 0, 2, 3, 7, 9})
	f.Add([]byte{0xff, 0, 0, 1, 1, 1, 0xff, 0, 0, 1, 1, 1, 0xff, 2, 0xff, 0, 0, 1, 0, 2})                // grow the same edge across a fold
	f.Add([]byte{0, 1, 9, 1, 0xff, 1, 0xff, 0, 6, 0, 1, 1, 0xff, 3, 1, 6, 2, 2, 0xff, 0, 6, 1})          // grow vertices, use them
	f.Add([]byte{0, 1, 9, 1, 2, 3, 9, 1, 0xff, 0, 1, 2, 4, 1, 0xff, 3, 2, 3, 1, 5, 0xff, 0, 2, 3, 1, 1}) // late merge under a tail
	f.Add([]byte{0, 1, 9, 1, 0xff, 4, 0xff, 0, 1, 0, 3, 3, 0xff, 5, 0xff, 0, 0, 1, 3, 3, 0xff, 3, 1, 0, 1, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Everything before the first 0xff marker is the initial network;
		// after it, each 0xff starts one op.
		var initial []byte
		if i := bytes.IndexByte(data, 0xff); i >= 0 {
			initial, data = data[:i], data[i:]
		} else {
			initial, data = data, nil
		}
		numV, items := decodeLayoutFuzzInput(initial)
		cur := rebuildFrom(numV, items)
		dir := t.TempDir()
		var mapped []*Network
		defer func() {
			for _, m := range mapped {
				m.Unmap()
			}
		}()

		type kept struct {
			n     *Network
			numV  int
			items int
		}
		history := []kept{{cur, numV, len(items)}}
		maxTime := func() float64 {
			m := 0.0
			for _, it := range items {
				m = max(m, it.time)
			}
			return m
		}
		// readItems decodes up to count (from, to, time-byte, qty) records.
		readItems := func(count int) (recs [][4]byte) {
			for ; count > 0 && len(data) >= 4; count-- {
				recs = append(recs, [4]byte(data[:4]))
				data = data[4:]
			}
			return recs
		}

		for step := 0; step < 12 && len(data) >= 2; step++ {
			op := data[1] % 6
			data = data[2:]
			switch op {
			case 0: // an in-order batch: existing edges grow, missing ones open
				var batch []BatchItem
				var log []refItem
				last := maxTime()
				for _, r := range readItems(3) {
					it := refItem{from: VertexID(int(r[0]) % numV), to: VertexID(int(r[1]) % numV),
						time: last + float64(r[2]%4), qty: float64(r[3]%32) + 0.5}
					last = it.time
					batch = append(batch, BatchItem{From: it.from, To: it.to, Time: it.time, Qty: it.qty})
					if it.from != it.to {
						log = append(log, it)
					}
				}
				next, appended, changed, err := cur.WithBatch(batch)
				if err != nil {
					t.Fatalf("WithBatch(%v): %v", batch, err)
				}
				if appended != len(log) {
					t.Fatalf("WithBatch appended %d of %v, want %d", appended, batch, len(log))
				}
				items = append(items, log...)
				var want []EdgeID
				for _, it := range log {
					id, ok := next.HasEdge(it.from, it.to)
					if !ok {
						t.Fatalf("edge %d->%d missing after its append", it.from, it.to)
					}
					want = append(want, id)
				}
				slices.Sort(want)
				if want = slices.Compact(want); !slices.Equal(changed, want) {
					t.Fatalf("delta %v, want %v", changed, want)
				}
				cur = next
			case 1: // grow the vertex space
				numV = min(numV+1+len(data)%2, 12)
				cur = cur.WithVertices(numV)
			case 2: // force a fold
				folded := cur.Folded()
				if folded.tail != nil {
					t.Fatal("Folded left a tail")
				}
				cur = folded
			case 3: // merge items at arbitrary (possibly late) times
				var batch []BatchItem
				for _, r := range readItems(2) {
					it := refItem{from: VertexID(int(r[0]) % numV), to: VertexID(int(r[1]) % numV),
						time: float64(r[2]), qty: float64(r[3]%32) + 0.5}
					batch = append(batch, BatchItem{From: it.from, To: it.to, Time: it.time, Qty: it.qty})
					if it.from != it.to {
						items = append(items, it)
					}
				}
				next, _, err := cur.WithMerged(batch)
				if err != nil {
					t.Fatalf("WithMerged(%v): %v", batch, err)
				}
				cur = next
			case 4: // binary save -> load
				dec, err := ReadNetworkBinary(bytes.NewReader(snapshotBytes(t, cur)))
				if err != nil {
					t.Fatalf("ReadNetworkBinary: %v", err)
				}
				cur = dec
			case 5: // binary save -> mmap (decodes where mmap is unavailable)
				path := filepath.Join(dir, "net.tinb")
				if err := os.WriteFile(path, snapshotBytes(t, cur), 0o644); err != nil {
					t.Fatal(err)
				}
				mm, err := OpenNetworkMmap(path)
				if err != nil {
					t.Fatalf("OpenNetworkMmap: %v", err)
				}
				// The file name is reused; the mapping outlives the unlink.
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				mapped = append(mapped, mm)
				cur = mm
			}
			checkVersion(t, cur, numV, items, true)
			for _, k := range history {
				checkVersion(t, k.n, k.numV, items[:k.items], false)
			}
			history = append(history, kept{cur, numV, len(items)})
		}
		// The oldest version answers queries exactly as on the day it was made.
		first := history[0]
		checkVersion(t, first.n, first.numV, items[:first.items], true)
	})
}

// TestAppendFoldsAtThreshold crosses foldTailAt with the load benchmark's
// batches: the version that reaches the bound comes back folded, versions
// on either side of the fold equal their rebuilds, and a reader's copy of a
// pre-fold version is untouched by everything after it.
func TestAppendFoldsAtThreshold(t *testing.T) {
	const numV, perBatch = 64, 32
	var items []refItem
	for i := 0; i < 200; i++ {
		items = append(items, refItem{from: VertexID(i % numV), to: VertexID((i*7 + 1) % numV), time: float64(i), qty: 1})
	}
	items = slices.DeleteFunc(items, func(it refItem) bool { return it.from == it.to })
	cur := rebuildFrom(numV, items)
	var pinned *Network
	var pinnedItems int
	folds := 0
	clock := 200.0
	for b := 0; b < 2*foldTailAt/perBatch+3; b++ {
		batch := make([]BatchItem, perBatch)
		for i := range batch {
			clock++
			k := b*perBatch + i
			it := refItem{from: VertexID(k % numV), to: VertexID((k*k + 3) % numV), time: clock, qty: float64(i%5) + 1}
			if it.from == it.to {
				it.to = (it.to + 1) % numV
			}
			items = append(items, it)
			batch[i] = BatchItem{From: it.from, To: it.to, Time: it.time, Qty: it.qty}
		}
		hadTail := cur.tail != nil
		next, _, _, err := cur.WithBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if hadTail && next.tail == nil {
			folds++
			if added := cur.tail.added + perBatch; added < foldTailAt {
				t.Fatalf("folded at %d tail interactions, bound is %d", added, foldTailAt)
			}
		}
		if next.tail != nil && next.tail.added >= foldTailAt {
			t.Fatalf("version holds %d tail interactions, bound is %d", next.tail.added, foldTailAt)
		}
		if b == 5 {
			pinned, pinnedItems = next, len(items)
		}
		cur = next
	}
	if folds != 2 {
		t.Fatalf("%d folds over %d batches, want 2", folds, 2*foldTailAt/perBatch+3)
	}
	checkVersion(t, cur, numV, items, false)
	checkVersion(t, pinned, numV, items[:pinnedItems], false)
	if !bytes.Equal(snapshotBytes(t, cur), snapshotBytes(t, rebuildFrom(numV, items))) {
		t.Fatal("snapshot after folds differs from the rebuild's")
	}
}

// TestSupersededVersionCanStillBeExtended: only the newest version may
// extend the runs it shares with its line, so deriving from an older one
// folds first — and disturbs neither its sibling nor itself.
func TestSupersededVersionCanStillBeExtended(t *testing.T) {
	items := []refItem{{from: 0, to: 1, time: 1, qty: 1}, {from: 1, to: 2, time: 2, qty: 2}}
	root := rebuildFrom(4, items)
	a, _, _, err := root.WithBatch([]BatchItem{{From: 0, To: 1, Time: 3, Qty: 3}, {From: 2, To: 3, Time: 4, Qty: 4}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := root.WithBatch([]BatchItem{{From: 0, To: 1, Time: 5, Qty: 5}, {From: 3, To: 0, Time: 6, Qty: 6}})
	if err != nil {
		t.Fatal(err)
	}
	itemsA := append(slices.Clone(items), refItem{from: 0, to: 1, time: 3, qty: 3}, refItem{from: 2, to: 3, time: 4, qty: 4})
	itemsB := append(slices.Clone(items), refItem{from: 0, to: 1, time: 5, qty: 5}, refItem{from: 3, to: 0, time: 6, qty: 6})
	checkVersion(t, root, 4, items, true)
	checkVersion(t, a, 4, itemsA, true)
	checkVersion(t, b, 4, itemsB, true)
}
