package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flownet/internal/core"
	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// testNetwork is the shared fixture: a small synthetic Prosper-shaped
// network (dense, with reciprocal and triangle edges, so pair flows, seed
// extractions and every catalogue pattern all have instances).
func testNetwork(t testing.TB) *tin.Network {
	t.Helper()
	return datagen.Prosper(datagen.Config{Vertices: 120, Seed: 7})
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *tin.Network) {
	t.Helper()
	n := testNetwork(t)
	s := New(cfg)
	if err := s.AddNetwork("test", n); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, n
}

// get fetches path and decodes the JSON body into out (when non-nil),
// returning the status code, cache header and raw body.
func get(t testing.TB, ts *httptest.Server, path string, out any) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, body, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Flownet-Cache"), body
}

// firstReachablePair returns a deterministic (source, sink) with a flow
// subgraph between them.
func firstReachablePair(t testing.TB, n *tin.Network) (tin.VertexID, tin.VertexID) {
	t.Helper()
	for src := tin.VertexID(0); src < 30; src++ {
		for snk := tin.VertexID(0); snk < 30; snk++ {
			if src == snk {
				continue
			}
			if _, ok := n.FlowSubgraphBetween(src, snk); ok {
				return src, snk
			}
		}
	}
	t.Fatal("fixture has no reachable pair")
	return 0, 0
}

// firstSeeds returns the first count seeds with a returning-path subgraph.
func firstSeeds(t testing.TB, n *tin.Network, count int) []tin.VertexID {
	t.Helper()
	opts := tin.DefaultExtractOptions()
	var seeds []tin.VertexID
	for v := tin.VertexID(0); int(v) < n.NumVertices() && len(seeds) < count; v++ {
		if _, ok := n.ExtractSubgraph(v, opts); ok {
			seeds = append(seeds, v)
		}
	}
	if len(seeds) < count {
		t.Fatalf("fixture has only %d seeds with subgraphs, want %d", len(seeds), count)
	}
	return seeds
}

// relTol is the tolerance (the benchmark driver's) within which a served
// flow must equal the LP oracle's: the service answers with the
// time-expanded reduction, the oracle with the simplex, and the two sum in
// different orders. Class, method and engine use are compared exactly.
const relTol = 1e-9

func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// lpSeedFlows is the LP oracle of a batch: every seed's extraction solved
// by PreSim with the simplex as its engine.
func lpSeedFlows(t *testing.T, n *tin.Network, seeds []tin.VertexID, opts tin.ExtractOptions) []core.SeedResult {
	t.Helper()
	out := make([]core.SeedResult, len(seeds))
	for i, v := range seeds {
		out[i].Seed = v
		g, ok := n.ExtractSubgraph(v, opts)
		if !ok {
			continue
		}
		r, err := core.PreSim(g, core.EngineLP)
		if err != nil {
			t.Fatal(err)
		}
		out[i].Ok, out[i].Result = true, r
	}
	return out
}

func TestFlowPair(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	src, snk := firstReachablePair(t, n)

	var res FlowResult
	status, _, _ := get(t, ts, fmt.Sprintf("/flow?source=%d&sink=%d", src, snk), &res)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !res.Ok || res.Network != "test" || res.Query != "pair" {
		t.Fatalf("unexpected result %+v", res)
	}

	// The served flow must equal the direct library computation: the
	// PreSim pipeline on DAG subgraphs, the time-expanded engine on
	// cyclic ones (pair subgraphs may contain cycles).
	g, _ := n.FlowSubgraphBetween(src, snk)
	var want float64
	var wantMethod string
	if g.IsDAG() {
		r, err := core.PreSim(g, core.EngineLP)
		if err != nil {
			t.Fatal(err)
		}
		want, wantMethod = r.Flow, "presim"
	} else {
		want, wantMethod = teg.MaxFlow(g), "teg"
	}
	if !closeEnough(res.Flow, want) || res.Method != wantMethod {
		t.Fatalf("served (%v, %s) != direct (%v, %s)", res.Flow, res.Method, want, wantMethod)
	}
}

func TestFlowSeed(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	seed := firstSeeds(t, n, 1)[0]

	var res FlowResult
	status, _, _ := get(t, ts, fmt.Sprintf("/flow?seed=%d", seed), &res)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	g, _ := n.ExtractSubgraph(seed, tin.DefaultExtractOptions())
	want, err := core.PreSim(g, core.EngineLP)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || !closeEnough(res.Flow, want.Flow) || res.Class != want.Class.String() || res.Method != "presim" || res.UsedEngine != want.UsedEngine {
		t.Fatalf("served %+v != direct %+v", res, want)
	}
	if res.Interactions != g.NumInteractions() {
		t.Fatalf("served interactions %d != %d", res.Interactions, g.NumInteractions())
	}
}

func TestFlowWindow(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	seed := firstSeeds(t, n, 1)[0]

	g, _ := n.ExtractSubgraph(seed, tin.DefaultExtractOptions())
	// Pick a window covering the lower half of the fixture's time range.
	var res FlowResult
	status, _, _ := get(t, ts, fmt.Sprintf("/flow?seed=%d&from=0&to=500", seed), &res)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	want, err := core.PreSim(g.RestrictWindow(0, 500), core.EngineLP)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || !closeEnough(res.Flow, want.Flow) {
		t.Fatalf("windowed served flow %v != direct %v", res.Flow, want.Flow)
	}

	// A window excluding everything yields zero flow, still Ok.
	status, _, _ = get(t, ts, fmt.Sprintf("/flow?seed=%d&from=1e12", seed), &res)
	if status != http.StatusOK || !res.Ok || res.Flow != 0 {
		t.Fatalf("empty-window query: status %d, result %+v", status, res)
	}
}

func TestFlowNotFoundAndErrors(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})

	// A vertex with no outgoing edges cannot reach anything: Ok == false.
	sinkOnly := tin.VertexID(-1)
	for v := 0; v < n.NumVertices(); v++ {
		if n.OutDegree(tin.VertexID(v)) == 0 && n.InDegree(tin.VertexID(v)) > 0 {
			sinkOnly = tin.VertexID(v)
			break
		}
	}
	if sinkOnly >= 0 {
		var res FlowResult
		status, _, _ := get(t, ts, fmt.Sprintf("/flow?source=%d&sink=0", sinkOnly), &res)
		if status != http.StatusOK || res.Ok {
			t.Fatalf("dead-end source: status %d, result %+v", status, res)
		}
	}

	for _, tc := range []struct {
		path   string
		status int
		text   string // part of the error message, when it matters which
	}{
		{"/flow?net=nope&source=0&sink=1", http.StatusNotFound, ""},
		{"/flow?source=0", http.StatusBadRequest, ""},
		{"/flow?source=0&sink=0", http.StatusBadRequest, ""},
		{"/flow?source=0&sink=999999", http.StatusBadRequest, ""},
		{"/flow?seed=abc", http.StatusBadRequest, ""},
		{"/flow?seed=1&hops=1", http.StatusBadRequest, ""},
		{"/flow?seed=1&from=zzz", http.StatusBadRequest, `from="zzz" is not a number`},
		// ParseFloat accepts NaN, but a window it bounds holds nothing and
		// equals no other: it used to answer 200 with a flow of 0.
		{"/flow?source=0&sink=1&from=NaN", http.StatusBadRequest, `from="NaN" is not a number`},
		{"/flow?seed=1&to=nan", http.StatusBadRequest, `to="nan" is not a number`},
		{"/patterns?pattern=P99", http.StatusBadRequest, ""},
		{"/patterns?pattern=P2&mode=xx", http.StatusBadRequest, ""},
	} {
		status, _, body := get(t, ts, tc.path, nil)
		if status != tc.status {
			t.Errorf("GET %s: status %d, want %d (body %s)", tc.path, status, tc.status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || !strings.Contains(eb.Error, tc.text) {
			t.Errorf("GET %s: error body %q, want JSON naming %q", tc.path, body, tc.text)
		}
	}

	// from=-0 and from=0 bound the same window, so they share one entry.
	get(t, ts, "/flow?source=0&sink=1&from=0", nil)
	if _, cacheHdr, _ := get(t, ts, "/flow?source=0&sink=1&from=-0", nil); cacheHdr != "hit" {
		t.Errorf("from=-0 after from=0: cache %q, want hit on the same key", cacheHdr)
	}
}

// TestBatchSeedMatchesFlowSeed pins that a seed has one answer path whether
// it arrives alone or in a batch — at 4 hops, where some seed subgraphs are
// cyclic (the extraction's cycle check only covers one inner edge per path)
// and /flow/batch used to fail the whole request with Algorithm 1's error
// while /flow answered the same seed through the time-expanded engine.
func TestBatchSeedMatchesFlowSeed(t *testing.T) {
	_, ts, n := newTestServer(t, Config{})
	var res BatchResult
	if status, body := post(t, ts, "/flow/batch", BatchRequest{All: true, Hops: 4}, &res); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	cyclic := 0
	for v := 0; v < n.NumVertices(); v++ {
		var one FlowResult
		get(t, ts, fmt.Sprintf("/flow?seed=%d&hops=4", v), &one)
		if got := res.Results[v]; got.Ok != one.Ok || got.Flow != one.Flow || got.Class != one.Class {
			t.Fatalf("seed %d: batch %+v, alone %+v", v, got, one)
		}
		if one.Method == "teg" {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Fatal("no 4-hop seed subgraph of the fixture is cyclic; the test is vacuous")
	}
}

func TestBatch(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	seeds := firstSeeds(t, n, 5)

	req := BatchRequest{Seeds: make([]int, len(seeds))}
	for i, v := range seeds {
		req.Seeds[i] = int(v)
	}
	req.Seeds = append(req.Seeds, 0) // vertex 0 may or may not have a subgraph
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/flow/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var res BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}

	ids := append(append([]tin.VertexID(nil), seeds...), 0)
	want := lpSeedFlows(t, n, ids, tin.DefaultExtractOptions())
	if len(res.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(want))
	}
	solved := 0
	for i, w := range want {
		g := res.Results[i]
		if g.Seed != int(w.Seed) || g.Ok != w.Ok || !closeEnough(g.Flow, w.Flow) || (w.Ok && g.Class != w.Class.String()) {
			t.Fatalf("result %d: served %+v != direct %+v", i, g, w)
		}
		if w.Ok {
			solved++
		}
	}
	if res.Solved != solved {
		t.Fatalf("solved = %d, want %d", res.Solved, solved)
	}

	// Error cases.
	for _, bad := range []string{
		`{"seeds":[99999999]}`,
		`{}`,
		`{"seeds":[1],"all":true}`,
		`{"bogus_field":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/flow/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestBatchLongSeedListCachesByHash(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	// Enough seeds that the joined key exceeds the 64-byte hashing cutoff.
	req := BatchRequest{}
	for v := 0; v < 40 && v < n.NumVertices(); v++ {
		req.Seeds = append(req.Seeds, v)
	}
	body, _ := json.Marshal(req)
	post := func() (string, []byte) {
		resp, err := http.Post(ts.URL+"/flow/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-Flownet-Cache"), raw
	}
	c1, b1 := post()
	c2, b2 := post()
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("hashed-key cached batch response differs")
	}
}

func TestBatchAll(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	body := `{"all": true}`
	resp, err := http.Post(ts.URL+"/flow/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != n.NumVertices() {
		t.Fatalf("all-mode returned %d results, want %d", len(res.Results), n.NumVertices())
	}
}

func TestPatternsAgainstLibrary(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 64})
	tables := pattern.Precompute(n, true)
	for _, p := range pattern.Catalogue {
		for _, mode := range []string{"pb", "gb"} {
			var want pattern.Summary
			var err error
			if mode == "pb" {
				want, err = pattern.SearchPB(n, tables, p, pattern.Options{})
			} else {
				want, err = pattern.SearchGB(n, p, pattern.Options{})
			}
			if err != nil {
				t.Fatalf("%s/%s direct: %v", p.Name, mode, err)
			}
			var res PatternResult
			status, _, body := get(t, ts, "/patterns?pattern="+p.Name+"&mode="+mode, &res)
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d (%s)", p.Name, mode, status, body)
			}
			if res.Instances != want.Instances || res.TotalFlow != want.TotalFlow || res.Truncated != want.Truncated {
				t.Errorf("%s/%s: served %+v != direct %+v", p.Name, mode, res, want)
			}
		}
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	seed := firstSeeds(t, n, 1)[0]
	path := fmt.Sprintf("/flow?seed=%d", seed)

	_, c1, b1 := get(t, ts, path, nil)
	_, c2, b2 := get(t, ts, path, nil)
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", b1, b2)
	}

	// Equivalent defaulted parameters share the cache entry.
	_, c3, b3 := get(t, ts, path+"&hops=3&maxinteractions=10000", nil)
	if c3 != "hit" || !bytes.Equal(b1, b3) {
		t.Fatalf("normalized query missed the cache (header %q)", c3)
	}

	var stats StatsResult
	get(t, ts, "/stats", &stats)
	if stats.Endpoints["/flow"].CacheHits != 2 {
		t.Fatalf("stats cache hits = %d, want 2", stats.Endpoints["/flow"].CacheHits)
	}
	if stats.Cache.Hits != 2 || stats.Cache.Len == 0 {
		t.Fatalf("unexpected cache stats %+v", stats.Cache)
	}
}

func TestCacheEvictionAndDisabled(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 1})
	seeds := firstSeeds(t, n, 2)
	p0 := fmt.Sprintf("/flow?seed=%d", seeds[0])
	p1 := fmt.Sprintf("/flow?seed=%d", seeds[1])
	get(t, ts, p0, nil)
	get(t, ts, p1, nil) // evicts p0
	_, c, _ := get(t, ts, p0, nil)
	if c != "miss" {
		t.Fatalf("expected eviction of first entry, got cache header %q", c)
	}
	var stats StatsResult
	get(t, ts, "/stats", &stats)
	if stats.Cache.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", stats.Cache)
	}

	// Caching disabled: every request misses.
	_, ts2, _ := newTestServer(t, Config{CacheSize: 0})
	get(t, ts2, p0, nil)
	_, c2, _ := get(t, ts2, p0, nil)
	if c2 != "miss" {
		t.Fatalf("disabled cache served a hit")
	}
}

func TestStatsAndNetworksEndpoints(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 16})
	get(t, ts, "/flow?source=0", nil) // one error request

	var nets map[string]NetworkInfo
	status, _, _ := get(t, ts, "/networks", &nets)
	if status != http.StatusOK {
		t.Fatalf("/networks status %d", status)
	}
	info, ok := nets["test"]
	if !ok || info.Vertices != n.NumVertices() || info.Interactions != n.NumInteractions() {
		t.Fatalf("unexpected /networks payload %+v", nets)
	}
	if info.TablesReady {
		t.Fatal("tables reported ready before any PB query")
	}

	get(t, ts, "/patterns?pattern=P2&mode=pb", nil)
	get(t, ts, "/networks", &nets)
	if !nets["test"].TablesReady {
		t.Fatal("tables not reported ready after a PB query")
	}

	var stats StatsResult
	get(t, ts, "/stats", &stats)
	fl := stats.Endpoints["/flow"]
	if fl.Requests != 1 || fl.Errors != 1 {
		t.Fatalf("/flow endpoint stats %+v; want 1 request, 1 error", fl)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", stats.UptimeSeconds)
	}

	var health HealthzResult
	if status, _, _ := get(t, ts, "/healthz", &health); status != http.StatusOK || !health.Ok {
		t.Fatalf("healthz status %d, body %+v", status, health)
	}
	// An in-memory server reports the network as non-durable.
	if d, ok := health.Networks["test"]; !ok || d.Durable {
		t.Fatalf("healthz durability %+v, want a non-durable entry for %q", health.Networks, "test")
	}
	if stats.Store.Durable || stats.Store.WALAppends != 0 {
		t.Fatalf("in-memory server store stats %+v", stats.Store)
	}

	// Method mismatches are rejected by the mux.
	resp, err := http.Post(ts.URL+"/flow", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /flow status %d, want 405", resp.StatusCode)
	}
}

func TestMultipleNetworksAndAmbiguity(t *testing.T) {
	n1 := testNetwork(t)
	n2 := datagen.CTU13(datagen.Config{Vertices: 80, Seed: 3})
	s := New(Config{CacheSize: 16})
	if err := s.AddNetwork("a", n1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNetwork("b", n2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNetwork("a", n1); err == nil {
		t.Fatal("duplicate AddNetwork succeeded")
	}
	if err := s.AddNetwork("x|y", n1); err == nil {
		t.Fatal("AddNetwork accepted a name with the key separator")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Omitting net with two networks loaded is ambiguous.
	status, _, _ := get(t, ts, "/flow?seed=1", nil)
	if status != http.StatusNotFound {
		t.Fatalf("ambiguous network: status %d, want 404", status)
	}
	status, _, _ = get(t, ts, "/flow?net=b&seed=1", nil)
	if status != http.StatusOK {
		t.Fatalf("named network: status %d", status)
	}
}
