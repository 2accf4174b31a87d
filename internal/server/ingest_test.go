package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flownet/internal/tin"
)

// buildNet finalizes a small hand-built network.
func buildNet(t testing.TB, numV int, items []tin.BatchItem) *tin.Network {
	t.Helper()
	b := tin.NewBuilder(numV)
	for _, it := range items {
		b.AddInteraction(it.From, it.To, it.Time, it.Qty)
	}
	return b.Finalize()
}

// chainItems carries 5 units 0 -> 1 -> 2 at times 1, 2: pair flow 0->2 is 5.
var chainItems = []tin.BatchItem{{From: 0, To: 1, Time: 1, Qty: 5}, {From: 1, To: 2, Time: 2, Qty: 5}}

// post sends a JSON body and decodes the JSON response (on 200) into out.
func post(t testing.TB, ts *httptest.Server, path string, body, out any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, rb, err)
		}
	}
	return resp.StatusCode, rb
}

func TestIngestDisabledByDefault(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheSize: 16})
	status, body := post(t, ts, "/ingest", IngestRequest{Interactions: []IngestInteraction{{From: 0, To: 1, Time: 1, Qty: 1}}}, nil)
	if status != http.StatusForbidden {
		t.Fatalf("POST /ingest without -allow-ingest: status %d (%s), want 403", status, body)
	}
	status, body = post(t, ts, "/networks", CreateNetworkRequest{Name: "x", Vertices: 4}, nil)
	if status != http.StatusForbidden {
		t.Fatalf("POST /networks without -allow-ingest: status %d (%s), want 403", status, body)
	}
}

// TestIngestInvalidatesOnlyThatNetwork is the acceptance regression: after
// POST /ingest, a repeated GET /flow on the affected network returns the
// updated flow value (cache miss on the first request post-append, hit
// thereafter), while the other network's cached entries survive.
func TestIngestInvalidatesOnlyThatNetwork(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	if err := s.AddNetwork("a", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNetwork("b", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	flowOf := func(netName string, wantCache string) float64 {
		t.Helper()
		var res FlowResult
		status, cacheHdr, body := get(t, ts, "/flow?net="+netName+"&source=0&sink=2", &res)
		if status != http.StatusOK {
			t.Fatalf("GET /flow net=%s: status %d (%s)", netName, status, body)
		}
		if cacheHdr != wantCache {
			t.Fatalf("GET /flow net=%s: cache %q, want %q", netName, cacheHdr, wantCache)
		}
		return res.Flow
	}

	// Warm both networks' caches.
	if f := flowOf("a", "miss"); f != 5 {
		t.Fatalf("initial flow on a = %g, want 5", f)
	}
	flowOf("a", "hit")
	flowOf("b", "miss")
	flowOf("b", "hit")

	// Append a later 2-unit transfer along the chain of network a.
	var ing IngestResult
	status, body := post(t, ts, "/ingest", IngestRequest{
		Network: "a",
		Interactions: []IngestInteraction{
			{From: 0, To: 1, Time: 3, Qty: 2},
			{From: 1, To: 2, Time: 4, Qty: 2},
		},
	}, &ing)
	if status != http.StatusOK {
		t.Fatalf("POST /ingest: status %d (%s)", status, body)
	}
	if ing.Appended != 2 || ing.Generation != 2 {
		t.Fatalf("ingest result %+v, want Appended=2 Generation=2", ing)
	}

	// Affected network: recomputed (miss) with the updated value, then cached.
	if f := flowOf("a", "miss"); f != 7 {
		t.Fatalf("flow on a after ingest = %g, want 7", f)
	}
	flowOf("a", "hit")
	// Untouched network: still answered from cache.
	flowOf("b", "hit")
}

// TestCreateNetworkAndIngest drives the full write path: register an empty
// network, stream batches into it, watch flows change, park an out-of-order
// arrival and merge it with a reindex.
func TestCreateNetworkAndIngest(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var created CreateNetworkResult
	status, body := post(t, ts, "/networks", CreateNetworkRequest{Name: "live", Vertices: 3}, &created)
	if status != http.StatusOK || created.Generation != 1 {
		t.Fatalf("POST /networks: status %d (%s), result %+v", status, body, created)
	}
	// Duplicate names conflict.
	if status, _ := post(t, ts, "/networks", CreateNetworkRequest{Name: "live", Vertices: 3}, nil); status != http.StatusConflict {
		t.Fatalf("duplicate POST /networks: status %d, want 409", status)
	}

	ingest := func(req IngestRequest) IngestResult {
		t.Helper()
		var res IngestResult
		status, body := post(t, ts, "/ingest", req, &res)
		if status != http.StatusOK {
			t.Fatalf("POST /ingest %+v: status %d (%s)", req, status, body)
		}
		return res
	}
	items := func(its ...IngestInteraction) []IngestInteraction { return its }

	ingest(IngestRequest{Network: "live", Interactions: items(
		IngestInteraction{From: 0, To: 1, Time: 1, Qty: 5},
		IngestInteraction{From: 1, To: 2, Time: 2, Qty: 5},
	)})
	var res FlowResult
	if _, _, _ = get(t, ts, "/flow?net=live&source=0&sink=2", &res); res.Flow != 5 {
		t.Fatalf("flow after first batch = %g, want 5", res.Flow)
	}

	// Out-of-order without permission: rejected, nothing changes.
	if status, _ := post(t, ts, "/ingest", IngestRequest{Network: "live",
		Interactions: items(IngestInteraction{From: 0, To: 2, Time: 1.5, Qty: 1})}, nil); status != http.StatusBadRequest {
		t.Fatalf("out-of-order ingest: status %d, want 400", status)
	}

	// With allow_out_of_order the item parks; queries are unaffected.
	ir := ingest(IngestRequest{Network: "live", AllowOutOfOrder: true,
		Interactions: items(IngestInteraction{From: 0, To: 1, Time: 1.5, Qty: 3})})
	if ir.Deferred != 1 || ir.Pending != 1 {
		t.Fatalf("deferred ingest result %+v, want Deferred=1 Pending=1", ir)
	}
	var infos map[string]NetworkInfo
	get(t, ts, "/networks", &infos)
	if infos["live"].PendingInteractions != 1 {
		t.Fatalf("networks listing %+v, want 1 pending interaction", infos["live"])
	}
	if _, _, _ = get(t, ts, "/flow?net=live&source=0&sink=2", &res); res.Flow != 5 {
		t.Fatalf("flow with parked item = %g, want 5 (parked items must be invisible)", res.Flow)
	}

	// Reindex merges the parked transfer; 1 now holds 8 units before t=2's
	// send but only 5 can move on (1->2 carries 5)... the extra 3 flow via
	// nothing — flow stays 5 until a matching onward transfer exists.
	ir = ingest(IngestRequest{Network: "live", Reindex: true})
	if !ir.Reindexed || ir.Appended != 1 || ir.Pending != 0 {
		t.Fatalf("reindex result %+v, want Reindexed Appended=1 Pending=0", ir)
	}
	ingest(IngestRequest{Network: "live", Interactions: items(
		IngestInteraction{From: 1, To: 2, Time: 5, Qty: 3},
	)})
	if _, _, _ = get(t, ts, "/flow?net=live&source=0&sink=2", &res); res.Flow != 8 {
		t.Fatalf("flow after reindex + onward transfer = %g, want 8", res.Flow)
	}

	// Vertex growth: out-of-range ids are rejected unless grow is set.
	if status, _ := post(t, ts, "/ingest", IngestRequest{Network: "live",
		Interactions: items(IngestInteraction{From: 2, To: 7, Time: 9, Qty: 1})}, nil); status != http.StatusBadRequest {
		t.Fatalf("out-of-range ingest without grow: status %d, want 400", status)
	}
	ingest(IngestRequest{Network: "live", Grow: true,
		Interactions: items(IngestInteraction{From: 2, To: 7, Time: 9, Qty: 1})})
	get(t, ts, "/networks", &infos)
	if infos["live"].Vertices != 8 {
		t.Fatalf("vertices after grow = %d, want 8", infos["live"].Vertices)
	}
}

// TestPatternsTablesRebuiltAfterIngest checks that the lazily built PB path
// tables are invalidated by ingestion: a pattern search after an append
// that creates new instances must see them.
func TestPatternsTablesRebuiltAfterIngest(t *testing.T) {
	s := New(Config{CacheSize: 64, AllowIngest: true})
	// A 2-cycle 0<->1: one P2 (cyclic pair) instance.
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
	var infos map[string]NetworkInfo
	get(t, ts, "/networks", &infos)
	if !infos["live"].TablesReady {
		t.Fatal("tables not ready after a PB search")
	}

	// Append a second 2-cycle 2<->3.
	status, body := post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
		{From: 2, To: 3, Time: 3, Qty: 5},
		{From: 3, To: 2, Time: 4, Qty: 4},
	}}, nil)
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d (%s)", status, body)
	}
	get(t, ts, "/networks", &infos)
	if infos["live"].TablesReady {
		t.Fatal("tables still marked ready after ingest invalidated them")
	}
	get(t, ts, "/patterns?net=live&pattern=P2&mode=pb", &pr)
	if pr.Instances <= before {
		t.Fatalf("instances after ingest = %d, want > %d", pr.Instances, before)
	}
}

// TestBatchCancelledRequest is the regression for request-context
// cancellation: a client that is already gone must not have its batch
// ground through, and the aborted partial result must not be cached.
func TestBatchCancelledRequest(t *testing.T) {
	s, ts, n := newTestServer(t, Config{CacheSize: 16})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(BatchRequest{All: true})
	req := httptest.NewRequest(http.MethodPost, "/flow/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled batch: status %d, want %d", rec.Code, statusClientClosedRequest)
	}

	// The same request over a live connection is computed afresh (miss) and
	// matches a direct computation.
	resp, err := http.Post(ts.URL+"/flow/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after cancelled batch: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Flownet-Cache"); got != "miss" {
		t.Fatalf("batch after cancelled batch: cache %q, want miss (cancelled run must not populate the cache)", got)
	}
	var br BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n.NumVertices() {
		t.Fatalf("batch results %d, want %d", len(br.Results), n.NumVertices())
	}
}

// TestStatsDuringIngestDoesNotDeadlock is the regression for a recursive
// read-lock: networkInfos used to call Pending() (RLock) while already
// inside View() (RLock held) — with a writer queued between the two
// acquisitions, Go's RWMutex deadlocks. Hammer /networks and /stats while
// ingesting; a watchdog converts a wedge into a test failure.
func TestStatsDuringIngestDoesNotDeadlock(t *testing.T) {
	s := New(Config{CacheSize: 16, AllowIngest: true})
	if err := s.AddNetwork("live", buildNet(t, 3, chainItems)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					get(t, ts, "/networks", nil)
					get(t, ts, "/stats", nil)
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					post(t, ts, "/ingest", IngestRequest{Network: "live", Interactions: []IngestInteraction{
						{From: 0, To: 1, Time: float64(100 + i*2 + w), Qty: 1},
					}, AllowOutOfOrder: true}, nil)
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stats/ingest traffic wedged: recursive read-lock deadlock")
	}
}
