package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// TestPBQueriesDuringIngestMatchGB: with versions published by pointer swap
// a delta can arrive while a reader pinned at an older generation is still
// fetching its tables, so the table cache must hand every reader tables for
// exactly the generation it pinned. One goroutine ingests 200 batches that
// touch edges on 2- and 3-cycles; four readers each repeatedly pin a
// version, fetch its tables and require the precomputation-based search to
// equal graph browsing on that same pinned network (the responses carry no
// generation, so the comparison has to be made under one pin); PB and GB
// requests run over HTTP beside them. Tables are patched forward, never
// rebuilt: the PB readers take turns from pin to tables (searches, ingest
// and GB requests run unserialized beside them), so none of them can hold a
// version below the cached tables — the one case that rebuilds by design,
// pinned by TestReaderBelowCachedTablesBuildsItsOwn. Once ingest is done
// both modes agree with a server rebuilt from the same interactions.
func TestPBQueriesDuringIngestMatchGB(t *testing.T) {
	const numV = 40
	var all []tin.BatchItem
	clock := 0.0
	item := func(k int) tin.BatchItem {
		clock++
		from := tin.VertexID(k % numV)
		to := tin.VertexID((k*5 + 1 + k/numV) % numV)
		if from == to {
			to = (to + 1) % numV
		}
		return tin.BatchItem{From: from, To: to, Time: clock, Qty: float64(k%7 + 1)}
	}
	for k := 0; k < 120; k++ {
		it := item(k)
		// Close a 2-cycle under every third edge so P2/RP2 have instances.
		all = append(all, it)
		if k%3 == 0 {
			clock++
			all = append(all, tin.BatchItem{From: it.To, To: it.From, Time: clock, Qty: 2})
		}
	}

	s := New(Config{CacheSize: 0, AllowIngest: true}) // cache off: every request computes
	if err := s.AddNetwork("live", buildNet(t, numV, all)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sh, _ := s.Store().Get("live")
	nd := s.derivedFor("live")
	s.PrecomputeTables()
	rebuilds := s.derived.tableRebuilds.Load()
	patterns := []*pattern.Pattern{pattern.P2, pattern.P3, pattern.RP2}
	sh.View(func(n *tin.Network, _ uint64) {
		for _, p := range patterns {
			if sum, err := pattern.SearchGB(n, p, pattern.Options{}); err != nil || sum.Instances == 0 {
				t.Fatalf("fixture has no %s instance (%+v, %v); test vacuous", p.Name, sum, err)
			}
		}
	})

	fetch := func(path string) (time.Duration, bool) {
		start := time.Now()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during ingest: status %d (%s)", path, resp.StatusCode, body)
			return 0, false
		}
		return time.Since(start), true
	}
	// What a PB request costs with no ingest beside it, and an upper bound
	// on one Tables.Update here (a whole Precompute).
	var quiet, update time.Duration
	for i := 0; i < 10; i++ {
		if d, ok := fetch("/patterns?net=live&pattern=P3&mode=pb"); ok {
			quiet = max(quiet, d)
		}
	}
	sh.View(func(n *tin.Network, _ uint64) {
		start := time.Now()
		pattern.Precompute(n, true)
		update = time.Since(start)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var turn sync.Mutex // held from pin to tables by one PB reader at a time
	var pins, slowest atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				turn.Lock()
				sh.View(func(n *tin.Network, gen uint64) {
					tables := nd.tablesAt(n, gen, &s.derived)
					turn.Unlock()
					for _, p := range patterns {
						pb, err := pattern.SearchPB(n, tables, p, pattern.Options{})
						if err != nil {
							t.Errorf("generation %d %s PB: %v", gen, p.Name, err)
							return
						}
						gb, err := pattern.SearchGB(n, p, pattern.Options{})
						if err != nil {
							t.Errorf("generation %d %s GB: %v", gen, p.Name, err)
							return
						}
						if pb.Instances != gb.Instances || math.Abs(pb.TotalFlow-gb.TotalFlow) > 1e-6*(1+math.Abs(gb.TotalFlow)) {
							t.Errorf("generation %d %s: PB=(%d,%g) GB=(%d,%g) on one pinned network",
								gen, p.Name, pb.Instances, pb.TotalFlow, gb.Instances, gb.TotalFlow)
						}
					}
				})
				pins.Add(1)
				time.Sleep(time.Millisecond) // leave the cores to the requests being timed
			}
		}()
	}
	for _, mode := range []string{"pb", "gb"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/patterns?net=live&pattern=%s&mode=%s", patterns[i%len(patterns)].Name, mode)
				if mode == "gb" {
					fetch(path)
					continue
				}
				turn.Lock()
				d, ok := fetch(path)
				turn.Unlock()
				if ok && int64(d) > slowest.Load() {
					slowest.Store(int64(d))
				}
			}
		}()
	}

	for b := 0; b < 200; b++ {
		batch := make([]store.Item, 3)
		for i := range batch {
			batch[i] = item(120 + b*3 + i)
		}
		if _, err := sh.Append(batch, store.Options{}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		all = append(all, batch...)
		time.Sleep(2 * time.Millisecond) // a feed, not a burst: readers land on intermediate generations
	}
	// Keep the readers going until they have seen the final generation.
	final := sh.Generation()
	deadline := time.Now().Add(10 * time.Second)
	for !nd.ready(final) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !nd.ready(final) {
		t.Fatalf("no reader brought the tables to the final generation %d", final)
	}

	if got := s.derived.tableRebuilds.Load() - rebuilds; got != 0 {
		t.Errorf("%d table rebuilds during ingest; every refresh must be an update", got)
	}
	if s.derived.tableUpdates.Load() == 0 {
		t.Error("no table update during 200 ingested batches; test vacuous")
	}
	t.Logf("%d pins, %d table updates; slowest PB request %v during ingest, %v quiet, Precompute %v",
		pins.Load(), s.derived.tableUpdates.Load(), time.Duration(slowest.Load()), quiet, update)
	// No PB request waits for ingest: it costs a quiet one plus one table
	// update. The multiplier is what a goroutine handoff can cost on two
	// cores shared with seven busy goroutines (more under the race
	// detector); a request queued behind writers or rebuilds is not bounded
	// by any multiple.
	if limit := 50*(quiet+update) + 250*time.Millisecond; time.Duration(slowest.Load()) > limit {
		t.Errorf("slowest PB request during ingest took %v, limit %v (quiet %v, update %v)",
			time.Duration(slowest.Load()), limit, quiet, update)
	}

	ref := New(Config{CacheSize: 0})
	if err := ref.AddNetwork("live", buildNet(t, numV, all)); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	for _, p := range patterns {
		for _, mode := range []string{"pb", "gb"} {
			q := fmt.Sprintf("/patterns?net=live&pattern=%s&mode=%s", p.Name, mode)
			gotStatus, _, got := get(t, ts, q, nil)
			wantStatus, _, want := get(t, rts, q, nil)
			if gotStatus != wantStatus || string(got) != string(want) {
				t.Errorf("%s after ingest:\nincremental (%d): %s\nrebuild     (%d): %s", q, gotStatus, got, wantStatus, want)
			}
		}
	}
}
