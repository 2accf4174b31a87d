package server

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

// derivedStatsOf polls /stats until cond accepts the derived counters (the
// retention sweep runs asynchronously after an ingest) or a deadline
// passes, returning the last observed counters either way.
func derivedStatsOf(t *testing.T, ts *httptest.Server, cond func(DerivedStats) bool) DerivedStats {
	t.Helper()
	var res StatsResult
	deadline := time.Now().Add(10 * time.Second)
	for {
		get(t, ts, "/stats", &res)
		if cond == nil || cond(res.Derived) || time.Now().After(deadline) {
			return res.Derived
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCacheRetentionAcrossIngest is the tentpole acceptance test for
// delta-aware cache retention: after an ingest that touches only one
// component of a network, a cached answer whose read footprint lies
// entirely in the other component survives the generation bump — served as
// a byte-identical hit with no recomputation — while answers the delta
// could have affected are purged and recomputed.
func TestCacheRetentionAcrossIngest(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
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

	// Ingest into component {0,1,2} only.
	status, body := post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 2}, {From: 1, To: 2, Time: 4, Qty: 2},
	}}, nil)
	if status != 200 {
		t.Fatalf("ingest: status %d (%s)", status, body)
	}
	d := derivedStatsOf(t, ts, func(d DerivedStats) bool { return d.CacheRetained+d.CachePurged >= 3 })
	if d.CacheRetained < 2 {
		t.Fatalf("derived stats after ingest = %+v, want >= 2 retained (pair 3->5 and seed 3)", d)
	}
	if d.CachePurged < 1 {
		t.Fatalf("derived stats after ingest = %+v, want >= 1 purged (pair 0->2)", d)
	}

	// The far component's answers are hits at the new generation, byte-identical.
	if _, b := flow("source=3&sink=5", "hit"); string(b) != string(farBody) {
		t.Fatalf("retained answer changed across the ingest:\nbefore %s\nafter  %s", farBody, b)
	}
	flow("seed=3", "hit")
	// The ingested component recomputes and sees the new value.
	if nearFlow, _ := flow("source=0&sink=2", "miss"); nearFlow != 7 {
		t.Fatalf("pair 0->2 after ingest = %g, want 7", nearFlow)
	}

	// A reindex re-ranks the whole canonical order: no footprint can save
	// an entry, the whole network's cache is purged.
	post(t, ts, "/ingest", IngestRequest{Network: "live", AllowOutOfOrder: true, Interactions: []IngestInteraction{
		{From: 3, To: 4, Time: 0.5, Qty: 1},
	}}, nil)
	post(t, ts, "/ingest", IngestRequest{Network: "live", Reindex: true}, nil)
	purgedBefore := d.CachePurged
	derivedStatsOf(t, ts, func(d DerivedStats) bool { return d.CachePurged > purgedBefore })
	flow("source=3&sink=5", "miss")
}

// TestCacheRetentionOtherNetworkUntouched checks the sweep's scope: an
// ingest into one network neither purges nor re-keys another network's
// entries.
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
	// Warm a too, so the sweep provably ran (its purge is observable) by
	// the time we assert on b's entry.
	get(t, ts, "/flow?net=a&source=0&sink=2", nil)
	post(t, ts, "/ingest", IngestRequest{Network: "a", Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 1},
	}}, nil)
	derivedStatsOf(t, ts, func(d DerivedStats) bool { return d.CacheRetained+d.CachePurged > 0 })
	if _, cacheHdr, _ := get(t, ts, "/flow?net=b&source=0&sink=2", nil); cacheHdr != "hit" {
		t.Fatalf("network b's entry after an ingest into a: cache %q, want hit under its original key", cacheHdr)
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
	if d := derivedStatsOf(t, ts, nil); d.TableRebuilds != 1 || d.TableUpdates != 0 {
		t.Fatalf("after first PB query: %+v, want exactly one rebuild", d)
	}

	// A small append (2 changed edges, far under the threshold): the next
	// PB query must update, not rebuild, and see the new 2-cycle.
	post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 2, To: 3, Time: 3, Qty: 5}, {From: 3, To: 2, Time: 4, Qty: 4},
	}}, nil)
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	if pr.Instances <= before {
		t.Fatalf("instances after ingest = %d, want > %d", pr.Instances, before)
	}
	if d := derivedStatsOf(t, ts, nil); d.TableRebuilds != 1 || d.TableUpdates != 1 {
		t.Fatalf("after post-ingest PB query: %+v, want the stale tables patched forward (1 rebuild, 1 update)", d)
	}

	// A reindex voids the accumulated delta: the next PB query rebuilds.
	post(t, ts, "/ingest", IngestRequest{Network: "live", AllowOutOfOrder: true, Interactions: []IngestInteraction{
		{From: 0, To: 1, Time: 0.5, Qty: 1},
	}}, nil)
	post(t, ts, "/ingest", IngestRequest{Network: "live", Reindex: true}, nil)
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	if d := derivedStatsOf(t, ts, nil); d.TableRebuilds != 2 || d.TableUpdates != 1 {
		t.Fatalf("after reindex PB query: %+v, want a rebuild (reindex re-ranked the canonical order)", d)
	}
}

// TestTableThresholdDisables checks the update threshold's two
// fallbacks: a negative threshold always rebuilds, and a delta larger than
// the threshold falls back to a rebuild too.
func TestTableThresholdDisables(t *testing.T) {
	run := func(threshold int, ingest []IngestInteraction, wantUpdates, wantRebuilds uint64) {
		t.Helper()
		s := New(Config{CacheSize: 64, AllowIngest: true})
		s.tableThreshold = threshold
		if err := s.AddNetwork("live", buildNet(t, 8, []tin.BatchItem{
			{From: 0, To: 1, Time: 1, Qty: 5},
			{From: 1, To: 0, Time: 2, Qty: 4},
		})); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", nil)
		post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: ingest}, nil)
		get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", nil)
		if d := derivedStatsOf(t, ts, nil); d.TableUpdates != wantUpdates || d.TableRebuilds != wantRebuilds {
			t.Fatalf("threshold %d: derived stats %+v, want %d updates / %d rebuilds",
				threshold, d, wantUpdates, wantRebuilds)
		}
	}

	small := []IngestInteraction{{From: 2, To: 3, Time: 3, Qty: 5}}
	// Negative threshold: incremental updates disabled outright.
	run(-1, small, 0, 2)
	// Threshold 1 with a 3-edge delta: over the limit, rebuild.
	run(1, []IngestInteraction{
		{From: 2, To: 3, Time: 3, Qty: 5},
		{From: 3, To: 4, Time: 4, Qty: 5},
		{From: 4, To: 5, Time: 5, Qty: 5},
	}, 0, 2)
	// Threshold 1 with a 1-edge delta: update.
	run(1, small, 1, 1)
}

// TestTableBuildSingleFlight is the regression for the doubled first
// build: tableCache.get used to run pattern.Precompute under no build
// lock, so N concurrent first PB queries ran N full precomputes. The
// single-flight guard must collapse them into exactly one build.
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
// edge — patched forward when the cache saw the delta, rebuilt when the
// cache did not exist yet — never the first reader's tables retagged.
func TestFirstTableBuildBelowCurrentGeneration(t *testing.T) {
	for _, c := range []struct {
		name                      string
		cacheExists               bool
		wantUpdates, wantRebuilds uint64
	}{
		{"delta logged before the first build", true, 1, 1},
		{"cache created after the bump", false, 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{AllowIngest: true})
			if err := s.AddNetwork("live", buildNet(t, 4, []tin.BatchItem{{From: 0, To: 1, Time: 1, Qty: 5}})); err != nil {
				t.Fatal(err)
			}
			sh, _ := s.Store().Get("live")
			if c.cacheExists {
				s.tablesFor(sh)
			}
			old, oldGen, release := sh.Acquire()
			// Close a 2-cycle while the first reader is still on its way.
			if _, err := sh.Append([]store.Item{{From: 1, To: 0, Time: 2, Qty: 4}}, store.Options{}); err != nil {
				t.Fatal(err)
			}
			tc := s.tablesFor(sh)
			if got := pbEqualsGB(t, old, tc.get(old, oldGen), "first reader"); got != 0 {
				t.Fatalf("first reader's version has %d P2 instances, want 0", got)
			}
			release()
			sh.View(func(n *tin.Network, gen uint64) {
				if gen != oldGen+1 {
					t.Fatalf("generation %d after one append to %d", gen, oldGen)
				}
				if got := pbEqualsGB(t, n, tc.get(n, gen), "next reader"); got != 2 {
					t.Fatalf("next reader sees %d P2 instances, want the new 2-cycle from both anchors", got)
				}
			})
			if u, r := s.derived.tableUpdates.Load(), s.derived.tableRebuilds.Load(); u != c.wantUpdates || r != c.wantRebuilds {
				t.Fatalf("%d updates, %d rebuilds; want %d and %d", u, r, c.wantUpdates, c.wantRebuilds)
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
	tc := s.tablesFor(sh)
	old, oldGen, release := sh.Acquire()
	defer release()
	if _, err := sh.Append([]store.Item{{From: 1, To: 0, Time: 2, Qty: 4}}, store.Options{}); err != nil {
		t.Fatal(err)
	}
	s.PrecomputeTables()
	if !tc.ready(oldGen+1) || s.derived.tableRebuilds.Load() != 1 {
		t.Fatalf("tables not built once at generation %d", oldGen+1)
	}
	if got := pbEqualsGB(t, old, tc.get(old, oldGen), "reader below the cached tables"); got != 0 {
		t.Fatalf("old version has %d P2 instances, want 0", got)
	}
	if !tc.ready(oldGen + 1) {
		t.Fatal("a reader below the cached tables installed what it built")
	}
	if got := s.derived.tableRebuilds.Load(); got != 2 {
		t.Fatalf("%d rebuilds, want 2 (the old reader's own)", got)
	}
	sh.View(func(n *tin.Network, gen uint64) {
		if got := pbEqualsGB(t, n, tc.get(n, gen), "current reader"); got != 2 {
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
	derivedStatsOf(t, ts, func(d DerivedStats) bool { return d.CacheRetained+d.CachePurged > 0 })

	status, _, body := get(t, ts, "/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics: status %d", status)
	}
	for _, want := range []string{
		`flownet_table_refreshes_total{method="update"}`,
		`flownet_table_refreshes_total{method="rebuild"}`,
		`flownet_cache_sweep_entries_total{outcome="retained"}`,
		`flownet_cache_sweep_entries_total{outcome="purged"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}

// TestCacheKeyRoundTrip pins the cacheKey/splitCacheKey pair against the
// keys the routes really store: every cached /flow (seed, pair, windowed),
// /flow/batch and /patterns key splits back into its kind, network,
// generation and query, rebuilds to the identical string, and re-keying it
// to a later generation — what the retention sweep does — changes the
// generation and nothing else.
func TestCacheKeyRoundTrip(t *testing.T) {
	s := New(Config{CacheSize: 64})
	if err := s.AddNetwork("live", buildNet(t, 6, twoComponents)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{
		"/flow?net=live&source=0&sink=2",
		"/flow?net=live&source=0&sink=2&from=1&to=2.5",
		"/flow?net=live&seed=0&hops=4&maxinteractions=-1",
		"/patterns?net=live&pattern=P2&mode=gb",
	} {
		if status, _, body := get(t, ts, path, nil); status != 200 {
			t.Fatalf("GET %s: status %d (%s)", path, status, body)
		}
	}
	if status, body := post(t, ts, "/flow/batch", BatchRequest{Network: "live", Seeds: []int{0, 3}}, nil); status != 200 {
		t.Fatalf("POST /flow/batch: status %d (%s)", status, body)
	}

	sh, err := s.store.Resolve("live")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	s.cache.Rekey(func(key string, v cachedResponse) (string, bool) {
		kind, network, gen, query, ok := splitCacheKey(key)
		if !ok || network != "live" || gen != sh.Generation() || query == "" {
			t.Errorf("key %q split to (%q, %q, %d, %q, %v)", key, kind, network, gen, query, ok)
		}
		if back := cacheKey(kind, network, gen, query); back != key {
			t.Errorf("key %q rebuilt as %q", key, back)
		}
		k2, n2, g2, q2, ok2 := splitCacheKey(cacheKey(kind, network, gen+7, query))
		if !ok2 || k2 != kind || n2 != network || q2 != query || g2 != gen+7 {
			t.Errorf("key %q re-keyed to (%q, %q, %d, %q, %v)", key, k2, n2, g2, q2, ok2)
		}
		kinds[kind]++
		return key, true
	})
	if kinds["flow"] != 3 || kinds["batch"] != 1 || kinds["patterns"] != 1 {
		t.Errorf("cached kinds = %v, want 3 flow, 1 batch, 1 patterns", kinds)
	}
	for _, bad := range []string{"", "flow", "flow|live", "flow|live|g1", "flow|live|7|q", "flow|live|gx|q"} {
		if _, _, _, _, ok := splitCacheKey(bad); ok {
			t.Errorf("splitCacheKey(%q) accepted a non-key", bad)
		}
	}
}
