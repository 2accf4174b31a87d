package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flownet/internal/fault"
	"flownet/internal/tin"
)

// testConfig applies the FLOWNET_TEST_MMAP CI hook: when set, the whole
// suite runs with zero-copy snapshot loading enabled, so every durability
// property is also proven over the mmap path.
func testConfig(cfg Config) Config {
	if os.Getenv("FLOWNET_TEST_MMAP") != "" {
		cfg.Mmap = true
	}
	return cfg
}

func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(testConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func items(its ...Item) []Item { return its }

// netState captures everything the durability contract promises to
// preserve across a restart.
type netState struct {
	stats   tin.Stats
	gen     uint64
	pending int
	maxTime float64
}

func stateOf(sh *Shard) netState {
	st := netState{stats: sh.NetStats(), gen: sh.Generation(), pending: sh.Pending()}
	sh.View(func(n *tin.Network, _ uint64) { st.maxTime = n.MaxTime() })
	return st
}

func requireSameState(t *testing.T, what string, a, b netState) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: state diverged:\n  before %+v\n  after  %+v", what, a, b)
	}
}

func TestMemoryOnlyCatalog(t *testing.T) {
	s := openTestStore(t, Config{})
	if _, err := s.Create("live", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("live", 3); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Create: err = %v, want ErrDuplicate", err)
	}
	// "." and ".." would resolve the shard directory to the data dir or
	// its parent and must never be accepted, durable or not.
	for _, bad := range []string{"", "a|b", "a\nb", ".", ".."} {
		if _, err := s.Create(bad, 1); err == nil {
			t.Errorf("Create(%q) accepted an invalid name", bad)
		}
	}
	sh, err := s.Resolve("")
	if err != nil || sh.Name() != "live" {
		t.Fatalf("Resolve sole network: %v, %v", sh, err)
	}
	if _, err := s.Resolve("nope"); err == nil {
		t.Fatal("Resolve of unknown name succeeded")
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 5}), Options{}); err != nil {
		t.Fatal(err)
	}
	if d := sh.Durability(); d.Durable {
		t.Fatalf("memory-only shard reports durable: %+v", d)
	}
	if err := sh.Snapshot(); err == nil {
		t.Fatal("Snapshot on a non-durable shard succeeded")
	}
	st := s.Stats()
	if st.Durable || st.WALAppends != 0 || st.Networks != 1 {
		t.Fatalf("memory-only stats %+v", st)
	}
}

// TestCreateAppendRecover is the core durability round trip: create,
// ingest (in-order, deferred, grow, reindex), reopen, compare exact state.
func TestCreateAppendRecover(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, Config{Dir: dir, SyncEveryBatch: sync})
			sh, err := s.Create("live", 3)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend := func(its []Item, opts Options) {
				t.Helper()
				if _, err := sh.Append(its, opts); err != nil {
					t.Fatal(err)
				}
			}
			mustAppend(items(
				Item{From: 0, To: 1, Time: 1, Qty: 5},
				Item{From: 1, To: 2, Time: 2, Qty: 5},
			), Options{})
			// Deferred out-of-order item (parks; pending must survive).
			mustAppend(items(Item{From: 0, To: 1, Time: 1.5, Qty: 3}), Options{OnOutOfOrder: PolicyDefer})
			// Growth through an append.
			mustAppend(items(Item{From: 2, To: 5, Time: 3, Qty: 1}), Options{Grow: true})
			// Reindex merges the parked item.
			if _, err := sh.Reindex(); err != nil {
				t.Fatal(err)
			}
			// One more plain append on top.
			mustAppend(items(Item{From: 1, To: 2, Time: 4, Qty: 2}), Options{})
			before := stateOf(sh)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := openTestStore(t, Config{Dir: dir})
			sh2, ok := s2.Get("live")
			if !ok {
				t.Fatalf("network not recovered; store has %d networks", s2.Len())
			}
			requireSameState(t, "recovered", before, stateOf(sh2))
			if got := s2.Stats().Recoveries; got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
			// The recovered shard keeps accepting appends.
			if _, err := sh2.Append(items(Item{From: 0, To: 1, Time: 9, Qty: 1}), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKillWithoutCloseRecovers drops the store on the floor (no Close, no
// fsync) — the in-process stand-in for a killed process — and checks the
// reopened store still has every acknowledged batch.
func TestKillWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(Config{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.Create("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(i), Qty: 1}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	before := stateOf(sh)
	// No Close: the WAL file descriptor is simply abandoned. Only the
	// directory lock is dropped, the way a dead process's would be.
	s.unlockDir()

	s2 := openTestStore(t, Config{Dir: dir})
	sh2, ok := s2.Get("live")
	if !ok {
		t.Fatal("network lost without clean shutdown")
	}
	requireSameState(t, "recovered after abandon", before, stateOf(sh2))
}

// TestPendingBufferSurvivesSnapshot checks the checkpoint carries parked
// items into the new WAL: snapshot, reopen, reindex still merges them.
func TestPendingBufferSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir, SnapshotEvery: -1})
	sh, err := s.Create("live", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 5, Qty: 5}), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 1, To: 2, Time: 2, Qty: 3}), Options{OnOutOfOrder: PolicyDefer}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if d := sh.Durability(); d.LastSnapshot.IsZero() || d.WALRecordsPending != 1 {
		t.Fatalf("durability after snapshot %+v, want a snapshot time and exactly the pending record", d)
	}
	before := stateOf(sh)
	s.Close()

	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered from snapshot", before, stateOf(sh2))
	if sh2.Pending() != 1 {
		t.Fatalf("pending after recovery = %d, want 1", sh2.Pending())
	}
	res, err := sh2.Reindex()
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 1 || sh2.Pending() != 0 {
		t.Fatalf("reindex after recovery: %+v, pending %d", res, sh2.Pending())
	}
}

// TestSnapshotCompactsWAL checks a checkpoint resets the WAL and that
// recovery afterwards replays snapshot + fresh WAL only.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir, SnapshotEvery: -1})
	sh, err := s.Create("live", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(i), Qty: 1}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	d := sh.Durability()
	if d.WALRecordsPending != 20 {
		t.Fatalf("pre-snapshot WAL records = %d, want 20", d.WALRecordsPending)
	}
	if err := sh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d = sh.Durability()
	if d.WALRecordsPending != 0 || d.WALBytesPending != 0 || d.BaseGeneration != sh.Generation() {
		t.Fatalf("post-snapshot durability %+v", d)
	}
	// More appends on the fresh WAL.
	for i := 20; i < 25; i++ {
		if _, err := sh.Append(items(Item{From: 1, To: 2, Time: float64(i), Qty: 1}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	before := stateOf(sh)
	s.Close()

	// Exactly one snapshot/WAL pair remains on disk.
	shardDir := filepath.Join(dir, "live")
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("shard dir holds %v, want exactly one snapshot + one WAL", names)
	}

	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered post-compaction", before, stateOf(sh2))
}

// TestAutoCheckpoint drives enough appends through a small SnapshotEvery
// to trigger the background checkpointer and waits for it to land.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir, SnapshotEvery: 4})
	sh, err := s.Create("live", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(i), Qty: 1}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "background checkpoint", func() bool { return s.Stats().Snapshots >= 1 })
	d := sh.Durability()
	if d.LastSnapshot.IsZero() || d.CheckpointError != "" {
		t.Fatalf("durability after auto checkpoint %+v", d)
	}
	before := stateOf(sh)
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered after auto checkpoint", before, stateOf(sh2))
}

// TestAddExternalNetworkDurable checks Add writes a self-contained initial
// snapshot: the reopened store restores the network without the original
// source, including post-Add ingests.
func TestAddExternalNetworkDurable(t *testing.T) {
	b := tin.NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 5)
	n := b.Finalize()

	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	sh, err := s.Add("ext", n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 7, Qty: 2}), Options{}); err != nil {
		t.Fatal(err)
	}
	before := stateOf(sh)
	s.Close()

	s2 := openTestStore(t, Config{Dir: dir})
	sh2, ok := s2.Get("ext")
	if !ok {
		t.Fatal("externally added network not recovered")
	}
	requireSameState(t, "recovered external", before, stateOf(sh2))
	if before.stats.Interactions != 3 {
		t.Fatalf("fixture drift: %d interactions", before.stats.Interactions)
	}
}

// TestTornTailIsDiscarded corrupts the WAL tail in several ways and checks
// recovery keeps the intact prefix and serves on.
func TestTornTailIsDiscarded(t *testing.T) {
	mutations := map[string]func([]byte) []byte{
		"truncated frame":   func(b []byte) []byte { return b[:len(b)-5] },
		"garbage appended":  func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8) },
		"crc flipped":       func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"huge length frame": func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0) },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(testConfig(Config{Dir: dir}))
			if err != nil {
				t.Fatal(err)
			}
			sh, err := s.Create("live", 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(i), Qty: 1}), Options{}); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			walPath := filepath.Join(dir, "live", "wal-g1.log")
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := openTestStore(t, Config{Dir: dir})
			sh2, ok := s2.Get("live")
			if !ok {
				t.Fatal("network lost to tail corruption")
			}
			st := sh2.NetStats()
			// The intact prefix holds at least the first two batches.
			if st.Interactions < 2 {
				t.Fatalf("recovered %d interactions, want >= 2", st.Interactions)
			}
			// The shard accepts appends after truncation.
			if _, err := sh2.Append(items(Item{From: 1, To: 2, Time: 99, Qty: 1}), Options{}); err != nil {
				t.Fatal(err)
			}
			before := stateOf(sh2)
			s2.Close()
			s3 := openTestStore(t, Config{Dir: dir})
			sh3, _ := s3.Get("live")
			requireSameState(t, "recovered after truncate+append", before, stateOf(sh3))
		})
	}
}

// TestGrowOnRejectedBatchIsDurable is the edge where Grow extends the
// vertex space but the batch itself fails validation: the growth (and its
// generation bump) must survive a restart.
func TestGrowOnRejectedBatchIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	sh, err := s.Create("live", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 10, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	// Out-of-order item addressed to a new vertex, grow allowed, reject
	// policy: the batch fails but the vertex space grew.
	if _, err := sh.Append(items(Item{From: 1, To: 7, Time: 1, Qty: 1}), Options{Grow: true}); err == nil {
		t.Fatal("out-of-order batch unexpectedly succeeded")
	}
	before := stateOf(sh)
	if before.stats.Vertices != 8 {
		t.Fatalf("vertices after grow = %d, want 8", before.stats.Vertices)
	}
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered after rejected grow", before, stateOf(sh2))
}

// TestChangeNotifications checks subscriptions fire per generation bump
// with the right name, and that recovery replay does not notify.
func TestChangeNotifications(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	type ev struct {
		name string
		gen  uint64
	}
	var mu sync.Mutex
	var evs []ev
	s.SubscribeDelta(func(name string, gen uint64, _ Delta) {
		mu.Lock()
		evs = append(evs, ev{name, gen})
		mu.Unlock()
	})
	sh, err := s.Create("live", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 1, To: 2, Time: 2, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]ev(nil), evs...)
	mu.Unlock()
	want := []ev{{"live", 2}, {"live", 3}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	s.Close()

	// Reopen with a subscriber attached immediately after Open: replay
	// already happened, so nothing fires.
	s2, err := Open(testConfig(Config{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fired := false
	s2.SubscribeDelta(func(string, uint64, Delta) { fired = true })
	if fired {
		t.Fatal("recovery replay notified a post-Open subscriber")
	}
}

// TestConcurrentAppendsAndQueries exercises the shard locking under -race:
// writers on two shards, readers and stats pollers on both.
func TestConcurrentAppendsAndQueries(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir, SnapshotEvery: 8})
	a, err := s.Create("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create("b", 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, sh := range []*Shard{a, b} {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(k), Qty: 1}), Options{}); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i, sh)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				for _, sh := range s.Shards() {
					sh.View(func(n *tin.Network, gen uint64) {
						_ = n.NumInteractions()
					})
					_ = sh.Durability()
				}
				_ = s.Stats()
			}
		}()
	}
	wg.Wait()
	if a.NetStats().Interactions != 50 || b.NetStats().Interactions != 50 {
		t.Fatalf("lost appends: a=%d b=%d", a.NetStats().Interactions, b.NetStats().Interactions)
	}
	before := map[string]netState{"a": stateOf(a), "b": stateOf(b)}
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	for _, name := range []string{"a", "b"} {
		sh, ok := s2.Get(name)
		if !ok {
			t.Fatalf("network %q lost", name)
		}
		requireSameState(t, name, before[name], stateOf(sh))
	}
}

// TestEscapedNames checks names needing path escaping survive the disk
// round trip.
func TestEscapedNames(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	name := "prod/euro transfers%v2"
	sh, err := s.Create(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	if _, ok := s2.Get(name); !ok {
		t.Fatalf("escaped-name network lost; store has %v", names(s2))
	}
}

func names(s *Store) []string {
	var out []string
	for _, sh := range s.Shards() {
		out = append(out, sh.Name())
	}
	return out
}

// TestWALRecordCodec round-trips the record payload codec directly.
func TestWALRecordCodec(t *testing.T) {
	its := items(
		Item{From: 0, To: 1, Time: 1.5, Qty: 2.25},
		Item{From: 1 << 20, To: 3, Time: -4, Qty: 0},
	)
	opts := Options{OnOutOfOrder: PolicyDefer, Grow: true}
	rec, ok := decodeRecord(encodeAppend(its, opts))
	if !ok || rec.op != opAppend {
		t.Fatalf("append decode failed: %+v ok=%v", rec, ok)
	}
	if rec.opts != opts || len(rec.items) != 2 || rec.items[0] != its[0] || rec.items[1] != its[1] {
		t.Fatalf("append round trip: %+v", rec)
	}
	rec, ok = decodeRecord(encodeReindex())
	if !ok || rec.op != opReindex {
		t.Fatalf("reindex decode failed")
	}
	rec, ok = decodeRecord(encodeGrow(123))
	if !ok || rec.op != opGrow || rec.numV != 123 {
		t.Fatalf("grow decode failed: %+v", rec)
	}
	for name, payload := range map[string][]byte{
		"empty":           {},
		"unknown op":      {99},
		"append no flags": {opAppend},
		"append trailing": append(encodeAppend(its, opts), 0),
		"grow trailing":   append(encodeGrow(5), 0),
		"reindex payload": {opReindex, 1},
		"lying count":     appendLyingCount(),
		// A count small enough to look plausible but larger than the body
		// can hold must be rejected before the slice allocation.
		"plausible lying count": binary.AppendUvarint([]byte{opAppend, 0}, 1_000_000),
	} {
		if _, ok := decodeRecord(payload); ok {
			t.Errorf("%s: decodeRecord accepted malformed payload", name)
		}
	}
}

func appendLyingCount() []byte {
	buf := []byte{opAppend, 0}
	return binary.AppendUvarint(buf, 1<<40)
}

// TestRecoverySkipsUnacknowledgedCreate: a network directory without any
// WAL is a Create/Add that died before its commit point. Open must clean
// it up and recover the rest of the catalog, not refuse to start.
func TestRecoverySkipsUnacknowledgedCreate(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	sh, err := s.Create("live", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	before := stateOf(sh)
	s.Close()

	// A create that died after MkdirAll but before the WAL rename...
	if err := os.MkdirAll(filepath.Join(dir, "ghost"), 0o777); err != nil {
		t.Fatal(err)
	}
	// ...and one that died mid-createWAL, leaving only the temp file.
	if err := os.MkdirAll(filepath.Join(dir, "torn"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn", "wal-g1.log.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Directories that are NOT the store's: a misconfigured -data-dir must
	// never delete user data. They are skipped, not registered, not
	// removed — even when a file name happens to contain ".tmp".
	for dirName, fileName := range map[string]string{"photos": "cat.jpg", "scratch": "notes.tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, dirName), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dirName, fileName), []byte("user data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openTestStore(t, Config{Dir: dir})
	sh2, ok := s2.Get("live")
	if !ok {
		t.Fatalf("acknowledged network lost; store has %v", names(s2))
	}
	requireSameState(t, "recovered next to ghosts", before, stateOf(sh2))
	if s2.Len() != 1 {
		t.Fatalf("store recovered %d networks, want 1 (ghosts must be skipped)", s2.Len())
	}
	for _, ghost := range []string{"ghost", "torn"} {
		if _, err := os.Stat(filepath.Join(dir, ghost)); !os.IsNotExist(err) {
			t.Errorf("unacknowledged directory %q not cleaned up (err %v)", ghost, err)
		}
	}
	for dirName, fileName := range map[string]string{"photos": "cat.jpg", "scratch": "notes.tmp"} {
		if _, err := os.ReadFile(filepath.Join(dir, dirName, fileName)); err != nil {
			t.Errorf("recovery deleted foreign user data %s/%s: %v", dirName, fileName, err)
		}
	}
	// The cleaned-up name is free again.
	if _, err := s2.Create("ghost", 2); err != nil {
		t.Errorf("Create over a cleaned ghost dir: %v", err)
	}
}

// TestCreateRefusesExistingDirectory: a shard directory that already
// exists on disk (case-insensitive filesystem collision, or foreign data)
// must fail the Create instead of being adopted — sharing it would let
// the new shard's WAL rename over whatever lives there.
func TestCreateRefusesExistingDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if err := os.MkdirAll(filepath.Join(dir, "live"), 0o777); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("live", 3); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Create over an existing directory: err = %v, want ErrDuplicate", err)
	}
	// A failed durable Create leaves no directory behind, so the name is
	// immediately reusable after the obstruction goes away.
	if err := os.Remove(filepath.Join(dir, "live")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("live", 3); err != nil {
		t.Fatalf("Create after removing the obstruction: %v", err)
	}
}

// TestOpenReleasesLockOnError: a failed Open must not leave the data
// directory locked against a retry in the same process.
func TestOpenReleasesLockOnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "%zz"), 0o777); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testConfig(Config{Dir: dir})); err == nil {
		t.Fatal("Open with an undecodable shard directory succeeded")
	}
	if err := os.Remove(filepath.Join(dir, "%zz")); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testConfig(Config{Dir: dir}))
	if err != nil {
		t.Fatalf("retry after cleaning the bad directory: %v", err)
	}
	s.Close()
}

// TestOpenRefusesHostileSnapshotHeader: a snapshot whose header counts
// overflow the section offsets is corrupt, and recovery must fail with an
// error, copying or mapping — not crash the process that opens the store.
func TestOpenRefusesHostileSnapshotHeader(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	b := tin.NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	n := b.Finalize()
	if _, err := s.Add("ext", n); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "ext", "snapshot-g*.tinb"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v (%v), want one", snaps, err)
	}
	hdr := make([]byte, 40)
	copy(hdr, "FNTB")
	binary.LittleEndian.PutUint16(hdr[4:], 2)  // version
	binary.LittleEndian.PutUint16(hdr[6:], 24) // record size
	binary.LittleEndian.PutUint64(hdr[8:], 3158064)
	binary.LittleEndian.PutUint64(hdr[16:], 3480000000000000000)
	binary.LittleEndian.PutUint64(hdr[24:], 3990000000000000000)
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(1))
	if err := os.WriteFile(snaps[0], hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		if s, err := Open(Config{Dir: dir, Mmap: mmap}); err == nil {
			s.Close()
			t.Errorf("Open (mmap %v) recovered a shard from a snapshot with a hostile header", mmap)
		}
	}
}

// TestDataDirLock: two stores must never serve the same data directory —
// the second Open fails instead of truncating live WALs.
func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if _, err := Open(testConfig(Config{Dir: dir})); err == nil {
		t.Fatal("second Open on a locked data directory succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock.
	s2, err := Open(testConfig(Config{Dir: dir}))
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

// TestWALFailurePoisonsShard: after a WAL append failure the in-memory
// network is ahead of the disk, so the shard must reject further writes —
// otherwise later acknowledged batches would be validated against a state
// recovery cannot reproduce. A successful Snapshot re-synchronizes disk
// with memory and lifts the poison.
func TestWALFailurePoisonsShard(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	sh, err := s.Create("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	// Make the next WAL write fail: close the descriptor under the shard.
	sh.wal.f.Close()
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 2, Qty: 1}), Options{}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append on a dead WAL: err = %v, want ErrDurability", err)
	}
	if d := sh.Durability(); d.WALError == "" {
		t.Fatalf("durability does not surface the poison: %+v", d)
	}
	// The next write attempt is rejected — even a batch that would log
	// fine — and queues the repair snapshot.
	if _, err := sh.Reindex(); !errors.Is(err, ErrDurability) {
		t.Fatalf("reindex on a poisoned shard: err = %v, want ErrDurability", err)
	}
	// The background repair rewrites disk from memory (including the
	// unlogged batch) and lifts the poison.
	waitFor(t, "repair snapshot", func() bool { return sh.Durability().WALError == "" })
	waitFor(t, "append after repair", func() bool {
		_, err := sh.Append(items(Item{From: 0, To: 1, Time: 4, Qty: 1}), Options{})
		return err == nil
	})
	before := stateOf(sh)
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered after repair", before, stateOf(sh2))
}

// TestSnapshotRepairsPoisonSynchronously: Shard.Snapshot called directly
// (tests, library users) performs the same repair.
func TestSnapshotRepairsPoisonSynchronously(t *testing.T) {
	s := openTestStore(t, Config{Dir: t.TempDir(), SnapshotEvery: -1})
	sh, err := s.Create("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	sh.wal.f.Close()
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 2, Qty: 1}), Options{}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append on a dead WAL: err = %v, want ErrDurability", err)
	}
	if err := sh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if d := sh.Durability(); d.WALError != "" {
		t.Fatalf("poison survives a successful snapshot: %+v", d)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 3, Qty: 1}), Options{}); err != nil {
		t.Fatalf("append after synchronous repair: %v", err)
	}
}

// TestInjectedWALFaultPoisonsAndRepairs: the same poison → repair cycle
// driven entirely through Config.FS fault injection — no reaching into
// shard internals. Also pins the error taxonomy the server maps to HTTP
// statuses: the append that hits the fault is ErrDurability (the batch IS
// in memory, not durable), and subsequent rejected writes are ErrReadOnly
// (nothing applied, retryable after the queued repair).
func TestInjectedWALFaultPoisonsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	rule := &fault.Rule{Op: fault.OpWrite, Path: "wal-", After: 2, Times: 1}
	s := openTestStore(t, Config{Dir: dir, FS: fault.NewInjector(nil, rule)})
	sh, err := s.Create("live", 4) // WAL write #1: the header
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err) // WAL write #2: first record
	}
	// WAL write #3 hits the injected fault after the batch is applied in
	// memory.
	if _, err := sh.Append(items(Item{From: 1, To: 2, Time: 2, Qty: 1}), Options{}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append through injected fault: err = %v, want ErrDurability", err)
	} else if errors.Is(err, ErrReadOnly) {
		t.Fatalf("the failing append itself must not be ErrReadOnly (its batch IS applied): %v", err)
	}
	if rule.Injections() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Injections())
	}
	// The poisoned shard rejects the next write with ErrReadOnly — which
	// still matches ErrDurability for callers using the broad sentinel.
	_, err = sh.Append(items(Item{From: 2, To: 3, Time: 3, Qty: 1}), Options{})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrDurability) {
		t.Fatalf("append on poisoned shard: err = %v, want ErrReadOnly (wrapping ErrDurability)", err)
	}
	// Reads keep serving the in-memory state, including the unlogged batch.
	if got := sh.NetStats().Interactions; got != 2 {
		t.Fatalf("poisoned shard serves %d interactions, want 2", got)
	}
	// The rejected write queued a repair; after it lands, writes resume and
	// a restart reproduces the full state (fault rule is exhausted by now).
	waitFor(t, "repair snapshot", func() bool { return sh.Durability().WALError == "" })
	waitFor(t, "append after repair", func() bool {
		_, err := sh.Append(items(Item{From: 2, To: 3, Time: 4, Qty: 1}), Options{})
		return err == nil
	})
	before := stateOf(sh)
	s.Close()
	s2 := openTestStore(t, Config{Dir: dir})
	sh2, _ := s2.Get("live")
	requireSameState(t, "recovered after injected fault + repair", before, stateOf(sh2))
}

// TestInjectedSnapshotFaultFailsAdd: snapshot IO goes through the FS too —
// a disk-full during Add's initial snapshot surfaces as ErrDurability and
// leaves no ghost directory behind.
func TestInjectedSnapshotFaultFailsAdd(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{
		Dir: dir,
		FS:  fault.NewInjector(nil, &fault.Rule{Op: fault.OpSync, Path: "snapshot-"}),
	})
	b := tin.NewBuilder(3)
	b.AddInteraction(0, 1, 1, 5)
	n := b.Finalize()
	if _, err := s.Add("net", n); !errors.Is(err, ErrDurability) {
		t.Fatalf("Add with failing snapshot fsync: err = %v, want ErrDurability", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed Add leaked into the catalog: %v", names(s))
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("failed Add left directory %q behind in the data dir", e.Name())
		}
	}
}

// TestCreateAddEnforceRecoveryBounds: anything the write path accepts must
// be loadable by the recovery path, so Create/Add enforce the same vertex
// bounds recoverShard and ReadNetworkBinary do.
func TestCreateAddEnforceRecoveryBounds(t *testing.T) {
	s := openTestStore(t, Config{Dir: t.TempDir()})
	if _, err := s.Create("big", maxCreateVertices+1); err == nil {
		t.Error("Create accepted a vertex count recovery would reject")
	}
	empty := tin.NewBuilder(0).Finalize()
	if _, err := s.Add("empty", empty); err == nil {
		t.Error("Add accepted a zero-vertex network whose snapshot cannot be read back")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected registrations leaked into the catalog: %v", names(s))
	}
	// The bound itself is fine.
	if _, err := s.Create("ok", 8); err != nil {
		t.Fatal(err)
	}
}

// TestWALRejectsOversizedRecord: a record the reader would treat as tail
// corruption must be rejected at write time, not silently dropped at the
// next recovery.
func TestWALRejectsOversizedRecord(t *testing.T) {
	w, err := createWAL(fault.OS{}, filepath.Join(t.TempDir(), "wal-g1.log"), walHeader{baseGen: 1, numV: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.append(make([]byte, maxWALRecord+1), false); err == nil {
		t.Fatal("oversized record accepted")
	}
	if w.records != 0 || w.size != walHeaderSize {
		t.Fatalf("rejected record mutated the WAL cursor: records=%d size=%d", w.records, w.size)
	}
	if err := w.append([]byte{opReindex}, false); err != nil {
		t.Fatalf("normal append after rejection: %v", err)
	}
}

// waitFor polls cond for up to ~5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeDelta checks the change notifications, on an in-memory and
// on a durable store alike: every generation bump — append, grow (even
// inside a rejected batch), reindex — fires exactly once with the new
// generation and the right delta shape (the changed edges' endpoints for
// appends, an empty delta for growth, Full for reindexes), tagged with the
// right network; a deferred-only append does not notify; and every callback
// runs before its version is published, i.e. before any reader can see the
// bump.
func TestSubscribeDelta(t *testing.T) {
	for name, cfg := range map[string]Config{"memory": {}, "durable": {Dir: t.TempDir()}} {
		t.Run(name, func(t *testing.T) { testSubscribeDelta(t, openTestStore(t, cfg)) })
	}
}

func testSubscribeDelta(t *testing.T, s *Store) {
	type ev struct {
		name  string
		gen   uint64
		delta Delta
	}
	var evs []ev // appended on the mutating goroutine, i.e. this one
	s.SubscribeDelta(func(name string, gen uint64, delta Delta) {
		evs = append(evs, ev{name, gen, delta})
		sh, _ := s.Get(name)
		if got := sh.Generation(); got >= gen {
			t.Errorf("notification for generation %d ran with generation %d already published", gen, got)
		}
	})
	sh, err := s.Create("live", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 1, Qty: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range endpoints with Grow: one growth bump (empty delta)
	// followed by the append bump carrying the new edge.
	if _, err := sh.Append(items(Item{From: 2, To: 3, Time: 2, Qty: 1}), Options{Grow: true}); err != nil {
		t.Fatal(err)
	}
	// Deferred-only append: no bump, no notification.
	if _, err := sh.Append(items(Item{From: 0, To: 1, Time: 0.5, Qty: 1}), Options{OnOutOfOrder: PolicyDefer}); err != nil {
		t.Fatal(err)
	}
	// Grow inside a rejected batch still bumps (and notifies) once.
	if _, err := sh.Append(items(Item{From: 0, To: 5, Time: 0.1, Qty: 1}), Options{Grow: true}); err == nil {
		t.Fatal("out-of-order append unexpectedly succeeded")
	}
	if _, err := sh.Reindex(); err != nil {
		t.Fatal(err)
	}

	if len(evs) != 5 {
		t.Fatalf("notifications = %+v, want 5 (append, grow, append, grow, reindex; the parked append must not notify)", evs)
	}
	for i, e := range evs {
		if e.name != "live" || e.gen != uint64(i+2) {
			t.Fatalf("notification %d = %+v, want generation %d on live", i, e, i+2)
		}
	}
	if d := evs[0].delta; d.Full || !slices.Equal(d.Vertices, []tin.VertexID{0, 1}) {
		t.Fatalf("append notification = %+v, want edge 0's endpoints [0 1]", evs[0])
	}
	for _, i := range []int{1, 3} {
		if d := evs[i].delta; d.Full || len(d.Vertices) != 0 {
			t.Fatalf("grow notification = %+v, want an empty delta", evs[i])
		}
	}
	if d := evs[2].delta; d.Full || !slices.Equal(d.Vertices, []tin.VertexID{2, 3}) {
		t.Fatalf("grown-append notification = %+v, want edge 1's endpoints [2 3]", evs[2])
	}
	if d := evs[4].delta; !d.Full || d.Vertices != nil {
		t.Fatalf("reindex notification = %+v, want Full", evs[4])
	}
}

// TestNoReaderSeesAnUnannouncedGeneration is the no-gap guarantee delta
// consumers rely on: a reader that observes generation g under the read
// lock is guaranteed the subscribers already ran for every bump up to g.
func TestNoReaderSeesAnUnannouncedGeneration(t *testing.T) {
	s := openTestStore(t, Config{})
	var announced atomic.Uint64
	announced.Store(1)
	s.SubscribeDelta(func(_ string, gen uint64, _ Delta) {
		if prev := announced.Swap(gen); prev != gen-1 {
			t.Errorf("generation %d announced after %d", gen, prev)
		}
	})
	sh, err := s.Create("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sh.View(func(_ *tin.Network, gen uint64) {
					if a := announced.Load(); gen > a {
						t.Errorf("reader saw generation %d, only %d announced", gen, a)
					}
				})
			}
		}()
	}
	for k := 0; k < 200; k++ {
		if _, err := sh.Append(items(Item{From: 0, To: 1, Time: float64(k), Qty: 1}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// ---- published versions: readers and writers do not wait for each other --

// versionTestNetwork is a small dense network: 40 vertices, 600 interactions
// at times 1..600, so seeds have returning paths and pairs have routes.
func versionTestNetwork() *tin.Network {
	b := tin.NewBuilder(40)
	for i := 0; i < 600; i++ {
		from, to := tin.VertexID(i*7%40), tin.VertexID((i*11+3)%40)
		if from != to {
			b.AddInteraction(from, to, float64(i+1), float64(i%9+1))
		}
	}
	return b.Finalize()
}

// versionBatch returns the i-th 64-item batch of the append stream used by
// the tests below: some items grow existing edges, some open new ones.
func versionBatch(i int) []Item {
	its := make([]Item, 64)
	for j := range its {
		k := i*64 + j
		from, to := tin.VertexID(k%40), tin.VertexID((k*13+5+i)%40)
		if from == to {
			to = (to + 1) % 40
		}
		its[j] = Item{From: from, To: to, Time: float64(1000 + k), Qty: float64(k%5 + 1)}
	}
	return its
}

// answersOf renders what a reader can learn from n: seed, pair and windowed
// extractions with their footprints, and the network's totals.
func answersOf(n *tin.Network) string {
	out := fmt.Sprintf("ia=%d edges=%d max=%v avg=%v\n", n.NumInteractions(), n.NumEdges(), n.MaxTime(), n.AvgQty())
	for v := tin.VertexID(0); v < 8; v++ {
		for _, q := range []tin.Query{
			{Source: v, Sink: v, ExtractOptions: tin.DefaultExtractOptions(), Footprint: true},
			{Source: v, Sink: v + 9, Footprint: true},
			{Source: v, Sink: v + 9, ExtractOptions: tin.ExtractOptions{Window: &tin.TimeWindow{From: 100, To: 400}}},
		} {
			x := n.Extract(q)
			out += fmt.Sprintf("%d->%d ok=%v foot=%v\n", q.Source, q.Sink, x.Ok, x.Footprint)
			if x.Ok {
				out += x.Graph.String() + "\n"
			}
		}
	}
	return out
}

// parkReader pins the shard's current version in a goroutine and hands the
// pinned network over; the reader stays inside View until release is closed.
func parkReader(t *testing.T, sh *Shard) (n *tin.Network, gen uint64, release chan struct{}, done chan struct{}) {
	t.Helper()
	type pinned struct {
		n   *tin.Network
		gen uint64
	}
	parked := make(chan pinned)
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sh.View(func(n *tin.Network, gen uint64) {
			parked <- pinned{n, gen}
			<-release
		})
	}()
	p := <-parked
	return p.n, p.gen, release, done
}

// appendHundred applies versionBatch(0..99) and fails the test if any
// Append takes 100 ms or the lot does not finish — at the parent commit the
// first one queued forever behind the read lock the parked reader held.
func appendHundred(t *testing.T, sh *Shard) {
	t.Helper()
	took := make(chan time.Duration, 100)
	go func() {
		defer close(took)
		for i := 0; i < 100; i++ {
			start := time.Now()
			if _, err := sh.Append(versionBatch(i), Options{}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			took <- time.Since(start)
		}
	}()
	deadline := time.After(30 * time.Second)
	for i := 0; ; i++ {
		select {
		case d, ok := <-took:
			if !ok {
				if i != 100 {
					t.Fatalf("%d of 100 appends completed", i)
				}
				return
			}
			if d >= 100*time.Millisecond {
				t.Errorf("append %d took %v with a reader parked, want < 100ms", i, d)
			}
		case <-deadline:
			t.Fatalf("append %d has not returned: the writer is waiting for the parked reader", i)
		}
	}
}

// TestIngestDoesNotWaitForReaders: a reader parked inside View holds no
// lock a writer needs. A hundred appends — enough to cross a tail fold
// (6400 interactions) and, on the durable store, several checkpoints —
// each return promptly, and a fresh reader sees all of them.
func TestIngestDoesNotWaitForReaders(t *testing.T) {
	for name, cfg := range map[string]Config{"memory": {}, "durable": {Dir: t.TempDir(), SnapshotEvery: 16}} {
		t.Run(name, func(t *testing.T) {
			s := openTestStore(t, cfg)
			sh, err := s.Add("live", versionTestNetwork())
			if err != nil {
				t.Fatal(err)
			}
			_, gen, release, done := parkReader(t, sh)
			appendHundred(t, sh)
			sh.View(func(n *tin.Network, g uint64) {
				if g != gen+100 || n.NumInteractions() != versionTestNetwork().NumInteractions()+6400 {
					t.Errorf("fresh reader sees generation %d with %d interactions, want %d with 6400 more than the seed network",
						g, n.NumInteractions(), gen+100)
				}
			})
			if cfg.Dir != "" {
				waitFor(t, "a background checkpoint", func() bool { return s.Stats().Snapshots > 0 })
			}
			close(release)
			<-done
		})
	}
}

// TestReadersKeepTheirVersion: a pinned version is a value. The parked
// reader — on a recovered shard, so under FLOWNET_TEST_MMAP=1 it reads a
// mapped base — gets byte-for-byte the same answers after a hundred
// appends, a fold and checkpoints have superseded its version, and still
// does while Store.Close runs in another goroutine: Close waits for the pin
// on a mapped base instead of unmapping it under the reader.
func TestReadersKeepTheirVersion(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(testConfig(Config{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Add("live", versionTestNetwork()); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, Config{Dir: dir, SnapshotEvery: 16})
	sh, ok := s.Get("live")
	if !ok {
		t.Fatal("network not recovered")
	}
	mapped := sh.Durability().Mmap
	if testConfig(Config{}).Mmap && runtime.GOOS == "linux" && !mapped {
		t.Fatal("recovered from a tip snapshot with Config.Mmap, but the base is not mapped")
	}
	n, gen, release, done := parkReader(t, sh)
	before := answersOf(n)
	ia, maxTime := n.NumInteractions(), n.MaxTime()

	appendHundred(t, sh)
	waitFor(t, "a background checkpoint", func() bool { return s.Stats().Snapshots > 0 })
	if sh.Durability().Mmap {
		t.Error("shard still reports a mapped base after a checkpoint folded it onto the heap")
	}
	if got := answersOf(n); got != before || n.NumInteractions() != ia || n.MaxTime() != maxTime {
		t.Fatalf("the parked reader's version changed under it:\n--- before\n%s--- after\n%s", before, got)
	}
	sh.View(func(_ *tin.Network, g uint64) {
		if g != gen+100 {
			t.Errorf("fresh reader sees generation %d, want %d", g, gen+100)
		}
	})

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if mapped {
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while a reader was still pinned on the mapped base", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	if got := answersOf(n); got != before {
		t.Fatal("the parked reader's answers changed while the store was closing")
	}
	close(release)
	<-done
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the last pin was released")
	}
}
