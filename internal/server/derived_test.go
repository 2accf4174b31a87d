package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flownet/internal/core"
	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// twoComponents is a fixture with two disconnected flow chains, so an
// ingest into one component provably cannot affect answers read from the
// other: 0 -> 1 -> 2 and 3 -> 4 -> 5, both carrying 5 units.
var twoComponents = []tin.BatchItem{
	{From: 0, To: 1, Time: 1, Qty: 5}, {From: 1, To: 2, Time: 2, Qty: 5},
	{From: 3, To: 4, Time: 1.5, Qty: 5}, {From: 4, To: 5, Time: 2.5, Qty: 5},
}

// derivedStatsOf reads the derived counters off /stats. They move on the
// request that causes them, so there is nothing to wait for.
func derivedStatsOf(t *testing.T, ts *httptest.Server) DerivedStats {
	t.Helper()
	var res StatsResult
	get(t, ts, "/stats", &res)
	return res.Derived
}

// TestCacheRetentionAcrossIngest is the tentpole acceptance test for
// delta-aware cache retention: after an ingest that touches only one
// component of a network, a cached answer whose read footprint lies
// entirely in the other component survives the generation bump — served as
// a byte-identical hit with no recomputation — while answers the delta
// could have affected are refused and recomputed. The counters move at the
// lookup that finds the entry, not at the ingest: 32-item appends beside a
// full 4 096-entry cache move no counter, evict nothing and leave no
// goroutine behind.
func TestCacheRetentionAcrossIngest(t *testing.T) {
	const entries = 4096
	s := New(Config{CacheSize: entries, AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 6, twoComponents)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	flow := func(query, wantCache string) (float64, []byte) {
		t.Helper()
		var res FlowResult
		status, cacheHdr, body := get(t, ts, "/flow?net=live&"+query, &res)
		if status != 200 {
			t.Fatalf("GET /flow %s: status %d (%s)", query, status, body)
		}
		if cacheHdr != wantCache {
			t.Fatalf("GET /flow %s: cache %q, want %q", query, cacheHdr, wantCache)
		}
		return res.Flow, body
	}
	wantCounters := func(when string, retained, purged uint64) {
		t.Helper()
		if d := derivedStatsOf(t, ts); d.CacheRetained != retained || d.CachePurged != purged {
			t.Fatalf("%s: derived stats %+v, want %d retained / %d purged", when, d, retained, purged)
		}
	}

	// Warm both components: a pair answer in 3..5, a seed answer at 3 (a
	// negative one — no returning path — which retention must also keep),
	// and a pair answer in 0..2 that the ingest will invalidate.
	farFlow, farBody := flow("source=3&sink=5", "miss")
	if farFlow != 5 {
		t.Fatalf("pair 3->5 = %g, want 5", farFlow)
	}
	flow("seed=3", "miss")
	if nearFlow, _ := flow("source=0&sink=2", "miss"); nearFlow != 5 {
		t.Fatalf("pair 0->2 = %g, want 5", nearFlow)
	}
	flow("source=0&sink=2", "hit")
	wantCounters("a hit at the generation that computed it", 0, 0)

	// Ingest into component {0,1,2} only.
	status, body := post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 2}, {From: 1, To: 2, Time: 4, Qty: 2},
	}}, nil)
	if status != 200 {
		t.Fatalf("ingest: status %d (%s)", status, body)
	}
	wantCounters("after the ingest, before any lookup", 0, 0)

	// The far component's answers are hits at the new generation, byte-identical.
	if _, b := flow("source=3&sink=5", "hit"); string(b) != string(farBody) {
		t.Fatalf("retained answer changed across the ingest:\nbefore %s\nafter  %s", farBody, b)
	}
	flow("seed=3", "hit")
	wantCounters("pair 3->5 and seed 3 served across the bump", 2, 0)
	// The ingested component recomputes and sees the new value.
	if nearFlow, _ := flow("source=0&sink=2", "miss"); nearFlow != 7 {
		t.Fatalf("pair 0->2 after ingest = %g, want 7", nearFlow)
	}
	wantCounters("pair 0->2 refused", 2, 1)
	flow("source=0&sink=2", "hit")
	wantCounters("the recomputed entry is current, not retained", 2, 1)

	// A reindex re-ranks the whole canonical order: no footprint can save
	// an entry, every answer of the network is stale.
	post(t, ts, "/ingest", IngestRequest{Network: "live", AllowOutOfOrder: true, Interactions: []IngestInteraction{
		{From: 3, To: 4, Time: 0.5, Qty: 1},
	}}, nil)
	post(t, ts, "/ingest", IngestRequest{Network: "live", Reindex: true}, nil)
	flow("source=3&sink=5", "miss")
	wantCounters("pair 3->5 refused after the reindex", 2, 2)

	// Fill the cache with windowed seed answers in the far component, served
	// in-process so no connection goroutine comes or goes, then append 32
	// items at a time into the near one, across two tail folds: the change
	// notification stamps the touched vertices and returns.
	for i := 0; i < entries; i++ {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/flow?net=live&seed=3&to=%d", i), nil))
		if w.Code != 200 {
			t.Fatalf("windowed seed %d: status %d (%s)", i, w.Code, w.Body)
		}
	}
	sh, _ := s.Store().Get("live")
	goroutines := runtime.NumGoroutine()
	batch := make([]store.Item, 32)
	for b := 0; b < 256; b++ {
		for i := range batch {
			batch[i] = store.Item{From: tin.VertexID(i % 2), To: tin.VertexID(i%2 + 1), Time: float64(10 + b*len(batch) + i), Qty: 1}
		}
		if _, err := sh.Append(batch, store.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if left := runtime.NumGoroutine() - goroutines; left > 0 {
		t.Errorf("256 appends beside a full cache left %d goroutines behind", left)
	}
	wantCounters("after the appends, before any lookup", 2, 2)
	var res StatsResult
	get(t, ts, "/stats", &res)
	if res.Cache.Len != entries {
		t.Errorf("the cache holds %d entries after the appends, want %d", res.Cache.Len, entries)
	}
}

// TestCacheRetentionOtherNetworkUntouched checks the stamps' scope: an
// ingest into one network makes none of another network's entries stale.
func TestCacheRetentionOtherNetworkUntouched(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	for _, name := range []string{"a", "b"} {
		if err := s.AddNetwork(name, buildNet(t, 3, chainItems)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get(t, ts, "/flow?net=b&source=0&sink=2", nil)
	get(t, ts, "/flow?net=a&source=0&sink=2", nil)
	post(t, ts, "/ingest", IngestRequest{Network: "a", Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 1},
	}}, nil)
	if _, cacheHdr, _ := get(t, ts, "/flow?net=b&source=0&sink=2", nil); cacheHdr != "hit" {
		t.Fatalf("network b's entry after an ingest into a: cache %q, want hit under its original key", cacheHdr)
	}
	if _, cacheHdr, _ := get(t, ts, "/flow?net=a&source=0&sink=2", nil); cacheHdr != "miss" {
		t.Fatalf("network a's entry after an ingest into its footprint: cache %q, want miss", cacheHdr)
	}
	// b was not bumped, so its hit is an ordinary one; a's entry was refused.
	if d := derivedStatsOf(t, ts); d.CacheRetained != 0 || d.CachePurged != 1 {
		t.Fatalf("derived stats %+v, want 0 retained / 1 purged", d)
	}
}

// TestReaderPinnedBelowABump: keys carry no generation, so a reader still
// holding the version before a bump looks up the very entry a newer reader
// has filled meanwhile. It must refuse it — that answer is from its future —
// and answer from its own version; and what it then memoizes, stamped with
// its old generation, must not be served to current readers either.
func TestReaderPinnedBelowABump(t *testing.T) {
	s := New(Config{CacheSize: 64})
	if err := s.AddNetwork("live", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	sh, _ := s.Store().Get("live")
	// ask answers pair 0->2 as /flow does (the body is the bare flow),
	// calling pinned between the pin and the cache lookup.
	ask := func(pinned func()) string {
		a := s.answerQuery(context.Background(), "/flow", "flow", sh, func(n *tin.Network, _ uint64) (string, runFunc, error) {
			pinned()
			q := tin.Query{Source: 0, Sink: 2, Footprint: true}
			return flowQueryKey(q), func(context.Context) (any, []tin.VertexID, error) {
				x := n.Extract(q)
				return core.Solve(x.Graph).Flow, x.Footprint, nil
			}, nil
		})
		return a.cache + " " + string(a.body)
	}
	current := func() string { return ask(func() {}) }

	pinned, proceed, fromOld := make(chan struct{}), make(chan struct{}), make(chan string)
	go func() {
		fromOld <- ask(func() {
			close(pinned)
			<-proceed
		})
	}()
	<-pinned
	if _, err := sh.Append([]store.Item{{From: 0, To: 1, Time: 3, Qty: 2}, {From: 1, To: 2, Time: 4, Qty: 2}}, store.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := current(); got != "miss 7\n" {
		t.Fatalf("reader at the new generation: %q, want a miss computing 7", got)
	}
	close(proceed)
	if got := <-fromOld; got != "miss 5\n" {
		t.Fatalf("reader pinned below the bump: %q, want a miss computing its own version's 5, never the newer reader's bytes", got)
	}
	// The old reader's late Put may have replaced the newer entry: the next
	// current reader hits the one or refuses the other, and answers 7.
	if got := current(); !strings.HasSuffix(got, " 7\n") {
		t.Fatalf("current reader after the old one memoized: %q, want 7", got)
	}
	if got := current(); got != "hit 7\n" {
		t.Fatalf("current reader again: %q, want a hit on 7", got)
	}
}

// TestStampsThroughGrowthAndReindex walks the stamps through the two bumps
// that are not plain appends: growth (vertices past the end of the stamp
// table, and a vertex count that unfooted answers depend on) and a reindex
// (nothing of the network survives; other networks are not involved).
func TestStampsThroughGrowthAndReindex(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 6, twoComponents)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNetwork("other", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	// ask issues the requests, requiring 200 and the given X-Flownet-Cache
	// (none for an ingest), and returns the last body.
	ask := func(wantCache string, reqs ...string) (body string) {
		t.Helper()
		for _, req := range reqs {
			status, cacheHdr, b := issue(s, req)
			if body = b; status != 200 || cacheHdr != wantCache {
				t.Fatalf("%s: status %d, cache %q, want %q (%s)", req, status, cacheHdr, wantCache, body)
			}
		}
		return body
	}
	const (
		other    = "GET /flow?net=other&source=0&sink=2"
		batchAll = `POST /flow/batch {"network":"live","all":true}`
		toNew    = "GET /flow?net=live&source=1&sink=6"
		// unasked is touched by the first growth and not looked up until
		// after the second: its stamp has to survive the table's copy.
		unasked = "GET /flow?net=live&source=1&sink=2"
	)
	far := []string{"GET /flow?net=live&source=3&sink=5", "GET /flow?net=live&seed=3"}
	near := []string{"GET /flow?net=live&source=0&sink=2", "GET /flow?net=live&seed=0"}
	ask("miss", other, unasked, batchAll)
	ask("miss", far...)
	ask("miss", near...)

	// Vertex 6 is new to the network and to the stamp table; the edge that
	// brings it touches component {0,1,2} at vertex 2.
	ask("", `POST /ingest {"network":"live","grow":true,"interactions":[{"from":2,"to":6,"time":3,"qty":1}]}`)
	ask("hit", far...)
	ask("miss", near...)
	if body := ask("miss", toNew, batchAll); !strings.Contains(body, `"seed":6`) {
		t.Fatalf("batch all after the growth does not list vertex 6: %s", body)
	}

	// A second growth touches vertices 6 and 7 only, past the end of the
	// table again: the answers recomputed in {0,1,2} stay, and the stamp on
	// 6 lands in the grown part.
	ask("", `POST /ingest {"network":"live","grow":true,"interactions":[{"from":6,"to":7,"time":4,"qty":1}]}`)
	ask("hit", append(far, near...)...)
	ask("miss", toNew, unasked, batchAll)

	// A batch rejected after it grew the vertex space bumps for the growth
	// alone: no vertex is touched, only the unfooted answers go stale.
	if status, _, body := issue(s, `POST /ingest {"network":"live","grow":true,"interactions":[{"from":0,"to":8,"time":0.1,"qty":1}]}`); status != 400 {
		t.Fatalf("late grow append: status %d, want 400 (%s)", status, body)
	}
	ask("hit", toNew, unasked)
	if body := ask("miss", batchAll); !strings.Contains(body, `"seed":8`) {
		t.Fatalf("batch all after the bare growth does not list vertex 8: %s", body)
	}

	ask("", `POST /ingest {"network":"live","allow_out_of_order":true,"interactions":[{"from":3,"to":4,"time":0.5,"qty":1}]}`,
		`POST /ingest {"network":"live","reindex":true}`)
	ask("miss", append(far, near...)...)
	ask("miss", toNew, unasked, batchAll)
	ask("hit", other)
}

// freshSink keeps the compiler from dropping the measured call.
var freshSink bool

// TestFreshCheckBudget pins what the stamp compare adds to a cache hit, at
// its worst: a footprint at the cap, every vertex of it inside the table
// and none of them touched, so all 1 024 are loaded and compared.
func TestFreshCheckBudget(t *testing.T) {
	st := New(Config{}).derivedFor("live")
	e := cachedResponse{gen: 1, foot: make([]tin.VertexID, tin.MaxFootprintVertices)}
	for i := range e.foot {
		e.foot[i] = tin.VertexID(2 * i)
	}
	st.record(2, store.Delta{Vertices: []tin.VertexID{2*tin.MaxFootprintVertices - 1}})
	if allocs := testing.AllocsPerRun(100, func() { freshSink = st.fresh(e, 2) }); allocs != 0 || !freshSink {
		t.Errorf("the stamp compare allocates %.0f objects and answers %v, want none and fresh", allocs, freshSink)
	}
	if raceEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const calls = 10_000
	var best time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		for j := 0; j < calls; j++ {
			freshSink = st.fresh(e, 2)
		}
		if d := time.Since(start) / calls; best == 0 || d < best {
			best = d
		}
	}
	t.Logf("stamp compare over %d footprint vertices: %v", len(e.foot), best)
	if best >= 2*time.Microsecond {
		t.Errorf("stamp compare over %d footprint vertices took %v, budget 2µs", len(e.foot), best)
	}
}

// TestTablesUpdatedNotRebuilt pins the warm-table path: after a small
// ingest, the next PB query patches the existing tables forward with
// pattern.Tables.Update (table_updates increments) instead of running a
// full precompute — and still finds the newly created instances.
func TestTablesUpdatedNotRebuilt(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 4, []tin.BatchItem{
		{From: 0, To: 1, Time: 1, Qty: 5},
		{From: 1, To: 0, Time: 2, Qty: 4},
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var pr PatternResult
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	before := pr.Instances
	if before == 0 {
		t.Fatal("fixture has no P2 instance; test vacuous")
	}
	if d := derivedStatsOf(t, ts); d.TableRebuilds != 1 || d.TableUpdates != 0 {
		t.Fatalf("after first PB query: %+v, want exactly one rebuild", d)
	}

	// A small append (2 changed edges): the next PB query must update, not
	// rebuild, and see the new 2-cycle.
	post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 2, To: 3, Time: 3, Qty: 5}, {From: 3, To: 2, Time: 4, Qty: 4},
	}}, nil)
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	if pr.Instances <= before {
		t.Fatalf("instances after ingest = %d, want > %d", pr.Instances, before)
	}
	if d := derivedStatsOf(t, ts); d.TableRebuilds != 1 || d.TableUpdates != 1 {
		t.Fatalf("after post-ingest PB query: %+v, want the stale tables patched forward (1 rebuild, 1 update)", d)
	}

	// A reindex voids the accumulated delta: the next PB query rebuilds.
	post(t, ts, "/ingest", IngestRequest{Network: "live", AllowOutOfOrder: true, Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 0.5, Qty: 1},
	}}, nil)
	post(t, ts, "/ingest", IngestRequest{Network: "live", Reindex: true}, nil)
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	if d := derivedStatsOf(t, ts); d.TableRebuilds != 2 || d.TableUpdates != 1 {
		t.Fatalf("after reindex PB query: %+v, want a rebuild (reindex re-ranked the canonical order)", d)
	}
}

// TestTableBuildSingleFlight is the regression for the doubled first
// build: the table cache used to run pattern.Precompute under no build
// lock, so N concurrent first PB queries ran N full precomputes. The
// record's mutex must collapse them into exactly one build.
func TestTableBuildSingleFlight(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{CacheSize: 0}) // cache off: every request computes
	const concurrent = 8
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, body := get(t, ts, "/patterns?pattern=P2&mode=pb", nil)
			if status != 200 {
				t.Errorf("concurrent PB query: status %d (%s)", status, body)
			}
		}()
	}
	wg.Wait()
	if got := s.derived.tableRebuilds.Load(); got != 1 {
		t.Fatalf("%d concurrent first PB queries ran %d table builds, want exactly 1 (single-flight)", concurrent, got)
	}
	if got := s.derived.tableUpdates.Load(); got != 0 {
		t.Fatalf("concurrent first PB queries counted %d updates, want 0", got)
	}
}

// pbEqualsGB requires the P2 search over tables to agree with graph browsing
// on the same pinned network and returns the instance count.
func pbEqualsGB(t *testing.T, n *tin.Network, tables pattern.Tables, what string) int64 {
	t.Helper()
	pb, err := pattern.SearchPB(n, tables, pattern.P2, pattern.Options{})
	if err != nil {
		t.Fatalf("%s: PB: %v", what, err)
	}
	gb, err := pattern.SearchGB(n, pattern.P2, pattern.Options{})
	if err != nil {
		t.Fatalf("%s: GB: %v", what, err)
	}
	if pb.Instances != gb.Instances || pb.TotalFlow != gb.TotalFlow {
		t.Fatalf("%s: PB=(%d,%g) GB=(%d,%g) on one pinned network", what, pb.Instances, pb.TotalFlow, gb.Instances, gb.TotalFlow)
	}
	return pb.Instances
}

// TestFirstTableBuildBelowCurrentGeneration: readers pin versions and
// writers do not wait for them, so the reader that runs the *first* build
// may hold a generation the network has already left. The bump it missed
// must not be lost: the next reader has to get tables that know the new
// edge — patched forward from the vertices the bump stamped — never the
// first reader's tables retagged.
func TestFirstTableBuildBelowCurrentGeneration(t *testing.T) {
	for _, c := range []struct {
		name          string
		derivedBefore bool
	}{
		{"delta logged before the first build", true},
		{"cache created after the bump", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{AllowIngest: true})
			if err := s.AddNetwork("live", buildNet(t, 4, []tin.BatchItem{{From: 0, To: 1, Time: 1, Qty: 5}})); err != nil {
				t.Fatal(err)
			}
			sh, _ := s.Store().Get("live")
			if c.derivedBefore {
				s.derivedFor("live")
			}
			old, oldGen, release := sh.Acquire()
			// Close a 2-cycle while the first reader is still on its way.
			if _, err := sh.Append([]store.Item{{From: 1, To: 0, Time: 2, Qty: 4}}, store.Options{}); err != nil {
				t.Fatal(err)
			}
			nd := s.derivedFor("live")
			if got := pbEqualsGB(t, old, nd.tablesAt(old, oldGen, &s.derived), "first reader"); got != 0 {
				t.Fatalf("first reader's version has %d P2 instances, want 0", got)
			}
			release()
			sh.View(func(n *tin.Network, gen uint64) {
				if gen != oldGen+1 {
					t.Fatalf("generation %d after one append to %d", gen, oldGen)
				}
				if got := pbEqualsGB(t, n, nd.tablesAt(n, gen, &s.derived), "next reader"); got != 2 {
					t.Fatalf("next reader sees %d P2 instances, want the new 2-cycle from both anchors", got)
				}
			})
			// Stamps exist from the first notification, so both orders patch.
			if u, r := s.derived.tableUpdates.Load(), s.derived.tableRebuilds.Load(); u != 1 || r != 1 {
				t.Fatalf("%d updates, %d rebuilds; want 1 and 1", u, r)
			}
		})
	}
}

// TestReaderBelowCachedTablesBuildsItsOwn: a reader still holding a version
// older than the cached tables gets tables for its own version and leaves
// the cached ones alone.
func TestReaderBelowCachedTablesBuildsItsOwn(t *testing.T) {
	s := New(Config{AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 4, []tin.BatchItem{{From: 0, To: 1, Time: 1, Qty: 5}})); err != nil {
		t.Fatal(err)
	}
	sh, _ := s.Store().Get("live")
	nd := s.derivedFor("live")
	old, oldGen, release := sh.Acquire()
	defer release()
	if _, err := sh.Append([]store.Item{{From: 1, To: 0, Time: 2, Qty: 4}}, store.Options{}); err != nil {
		t.Fatal(err)
	}
	s.PrecomputeTables()
	if !nd.ready(oldGen+1) || s.derived.tableRebuilds.Load() != 1 {
		t.Fatalf("tables not built once at generation %d", oldGen+1)
	}
	if got := pbEqualsGB(t, old, nd.tablesAt(old, oldGen, &s.derived), "reader below the cached tables"); got != 0 {
		t.Fatalf("old version has %d P2 instances, want 0", got)
	}
	if !nd.ready(oldGen + 1) {
		t.Fatal("a reader below the cached tables installed what it built")
	}
	if got := s.derived.tableRebuilds.Load(); got != 2 {
		t.Fatalf("%d rebuilds, want 2 (the old reader's own)", got)
	}
	sh.View(func(n *tin.Network, gen uint64) {
		if got := pbEqualsGB(t, n, nd.tablesAt(n, gen, &s.derived), "current reader"); got != 2 {
			t.Fatalf("current reader sees %d P2 instances, want the 2-cycle from both anchors", got)
		}
	})
}

// TestMetricsExposeDerivedFamilies checks the Prometheus surface of the
// derived-state counters.
func TestMetricsExposeDerivedFamilies(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	get(t, ts, "/flow?net=live&source=0&sink=2", nil)
	post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 1},
	}}, nil)
	get(t, ts, "/flow?net=live&source=0&sink=2", nil) // finds the entry stale

	status, _, body := get(t, ts, "/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics: status %d", status)
	}
	for _, want := range []string{
		`flownet_table_refreshes_total{method="update"}`,
		`flownet_table_refreshes_total{method="rebuild"}`,
		`flownet_cache_sweep_entries_total{outcome="retained"} 0`,
		`flownet_cache_sweep_entries_total{outcome="purged"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}
