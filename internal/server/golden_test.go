package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"flownet/internal/core"
	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// testdata/golden_bodies.json freezes the wire of the three cached routes
// as answered by the commit before they were folded into one serveQuery
// and one core.Solve (the parent of the PR that added this file): status,
// body bytes and X-Flownet-Cache of every request of goldenScript, before
// and after an ingest, under the key "teg" — the engine that commit had to
// be asked for and the only one served since. The differential and table tests
// compare the server with the library it calls, so a mistake both share —
// a dropped field, a changed error text, a key that stops normalising —
// passes them; byte equality with the old, separately written handlers
// does not.
//
// Regenerate only on a deliberate change of the wire:
//
//	go test ./internal/server -run TestGoldenBodies -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bodies.json from the current code")

const goldenPath = "testdata/golden_bodies.json"

// goldenEntry is one scripted request and what it answered.
type goldenEntry struct {
	// Req is "GET <path>" or "POST <path> <body>".
	Req    string `json:"req"`
	Status int    `json:"status"`
	// Cache is the X-Flownet-Cache header of the first and of the second
	// issue, comma-separated ("miss,hit"; "," for an uncached answer). Both
	// issues must agree on status and body. /ingest is issued once.
	Cache string `json:"cache"`
	Body  string `json:"body"`
}

// goldenDAG is the second golden network: the fixture's pair instances are
// all cyclic (one giant component), so the acyclic pair answers — one per
// class — come from here. 0..3 is the paper's Figure 3 (0→3 is class C,
// 0→2 class A); in 4..7 the only interaction leaving 5 for 7 precedes
// everything 5 receives, so 4→6 is soluble once preprocessed (class B).
var goldenDAG = []tin.BatchItem{
	{From: 0, To: 1, Time: 1, Qty: 5}, {From: 0, To: 2, Time: 2, Qty: 3},
	{From: 1, To: 2, Time: 3, Qty: 5}, {From: 1, To: 3, Time: 4, Qty: 4},
	{From: 2, To: 3, Time: 5, Qty: 1},
	{From: 5, To: 7, Time: 9, Qty: 2}, {From: 4, To: 5, Time: 10, Qty: 5},
	{From: 5, To: 6, Time: 11, Qty: 3}, {From: 7, To: 6, Time: 12, Qty: 2},
}

// goldenSeeds returns the fixture's first seed of each class, A to C.
func goldenSeeds(t *testing.T, n *tin.Network) [3]int {
	t.Helper()
	seeds := [3]int{-1, -1, -1}
	for v := 0; v < n.NumVertices(); v++ {
		g, ok := n.ExtractSubgraph(tin.VertexID(v), tin.DefaultExtractOptions())
		if !ok {
			continue
		}
		r, err := core.PreSim(g, core.EngineLP)
		if err != nil {
			t.Fatal(err)
		}
		if seeds[r.Class] < 0 {
			seeds[r.Class] = v
		}
	}
	if seeds[0] < 0 || seeds[1] < 0 || seeds[2] < 0 {
		t.Fatalf("fixture lacks a seed of some class: %v", seeds)
	}
	return seeds
}

// goldenScript lists the requests of one pass, in issue order: n is served
// as "test", goldenDAG as "dag".
func goldenScript(t *testing.T, n *tin.Network) []string {
	t.Helper()
	seeds := goldenSeeds(t, n)
	nv := n.NumVertices()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

	var reqs []string
	flow := func(format string, args ...any) {
		reqs = append(reqs, "GET /flow?"+fmt.Sprintf(format, args...))
	}
	// A seed, an acyclic pair and a cyclic pair ("method":"teg"), plain and
	// under every window shape: interior, point, inverted (empty), and each
	// one-sided form.
	for _, q := range []struct {
		addr string
		max  float64 // the network's latest timestamp
	}{
		{fmt.Sprintf("net=test&seed=%d", seeds[2]), n.MaxTime()},
		{"net=dag&source=0&sink=3", 12},
		{"net=test&source=0&sink=1", n.MaxTime()},
	} {
		flow("%s", q.addr)
		flow("%s&from=%s&to=%s", q.addr, f(q.max/4), f(3*q.max/4))
		flow("%s&from=%s&to=%s", q.addr, f(q.max), f(q.max))
		flow("%s&from=%s&to=%s", q.addr, f(3*q.max/4), f(q.max/4))
		flow("%s&from=%s", q.addr, f(q.max/2))
		flow("%s&to=%s", q.addr, f(q.max/2))
	}
	// The other classes, and the two ways an instance can be missing.
	flow("net=test&seed=%d", seeds[0])
	flow("net=test&seed=%d", seeds[1])
	flow("net=dag&source=0&sink=2")
	flow("net=dag&source=4&sink=6")
	flow("net=dag&source=3&sink=0")
	flow("net=dag&seed=0")
	// Key normalisation: explicit defaults share the default's entry, other
	// knob values do not.
	flow("net=test&seed=%d&hops=3&maxinteractions=10000", seeds[2])
	flow("net=test&seed=%d&hops=2", seeds[2])
	flow("net=test&seed=%d&hops=4", seeds[2])
	flow("net=test&seed=%d&maxinteractions=-1", seeds[2])
	flow("net=test&seed=%d&maxinteractions=3", seeds[2])
	// Every 4xx of parseFlowQuery, and the two network-resolution 404s.
	flow("net=test")
	flow("net=test&seed=abc")
	flow("net=test&seed=-1")
	flow("net=test&seed=%d", nv)
	flow("net=test&seed=0&from=x")
	flow("net=test&seed=0&to=y")
	flow("net=test&seed=0&from=x&to=y")
	flow("net=test&seed=0&hops=x")
	flow("net=test&seed=0&maxinteractions=x")
	flow("net=test&seed=0&hops=x&maxinteractions=x")
	flow("net=test&seed=0&hops=1")
	flow("net=test&source=0")
	flow("net=test&sink=1")
	flow("net=test&source=0&sink=0")
	flow("net=test&source=abc&sink=1")
	flow("net=test&source=0&sink=%d", nv)
	flow("net=test&source=abc&sink=%d", nv)
	flow("net=nope&seed=0")
	flow("seed=0")

	batch := func(body string) { reqs = append(reqs, "POST /flow/batch "+body) }
	listed := fmt.Sprintf("%d,%d,%d", seeds[0], seeds[1], seeds[2])
	long := make([]string, 40) // "0,1,…,39" is over 64 characters: hashed key
	for i := range long {
		long[i] = strconv.Itoa(i)
	}
	batch(`{"network":"test","seeds":[` + listed + `]}`)
	batch(`{"network":"test","seeds":[` + listed + `],"workers":2}`)
	batch(`{"network":"test","seeds":[` + listed + `],"hops":2,"max_interactions":-1}`)
	batch(`{"network":"test","seeds":[` + listed + `],"max_interactions":20}`)
	batch(`{"network":"test","all":true}`)
	batch(`{"network":"dag","all":true}`)
	batch(`{"network":"test","seeds":[` + strings.Join(long, ",") + `]}`)
	batch(`{"network":"test","seeds":[-1]}`)
	batch(fmt.Sprintf(`{"network":"test","seeds":[0,%d]}`, nv))
	batch(`{"network":"test","seeds":[0],"all":true}`)
	batch(`{"network":"test"}`)
	batch(`{"network":"test","seeds":[0],"hops":1}`)
	batch(`{"network":"test","seeds":[0],"bogus":1}`)
	batch(`{"network":"test","seeds":`)
	batch(`{"network":"nope","seeds":[0]}`)
	batch(`{"seeds":[0]}`)

	pat := func(format string, args ...any) {
		reqs = append(reqs, "GET /patterns?net=test&"+fmt.Sprintf(format, args...))
	}
	for _, p := range pattern.Catalogue {
		for _, mode := range []string{"gb", "pb"} {
			for _, max := range []int{0, 5} {
				for _, minPaths := range []int{0, 2} {
					pat("pattern=%s&mode=%s&max=%d&minpaths=%d", p.Name, mode, max, minPaths)
				}
			}
		}
	}
	pat("pattern=P2")
	pat("pattern=P2&workers=2")
	pat("pattern=P9")
	pat("pattern=P2&mode=xx")
	pat("pattern=P2&max=abc")
	pat("pattern=P2&minpaths=abc&workers=abc")
	reqs = append(reqs, "GET /patterns?net=dag&pattern=P1&mode=gb", "GET /patterns?net=nope&pattern=P2", "GET /patterns?pattern=P2")
	return reqs
}

// scripted builds the request a script line describes ("GET <path>" or
// "POST <path> <body>").
func scripted(req string) *http.Request {
	method, rest, _ := strings.Cut(req, " ")
	target, body, _ := strings.Cut(rest, " ")
	return httptest.NewRequest(method, target, strings.NewReader(body))
}

// issue sends one scripted request straight into the handler and returns
// its status, X-Flownet-Cache header and body.
func issue(s *Server, req string) (int, string, string) {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, scripted(req))
	return w.Code, w.Header().Get("X-Flownet-Cache"), w.Body.String()
}

// computeGolden runs the script on the current code: one pass, one ingest,
// the same pass again.
func computeGolden(t *testing.T) []goldenEntry {
	t.Helper()
	n := testNetwork(t)
	script := goldenScript(t, n)
	ingest := fmt.Sprintf(`POST /ingest {"network":"test","interactions":[`+
		`{"from":0,"to":1,"time":%[1]g,"qty":5},{"from":1,"to":2,"time":%[1]g,"qty":4},`+
		`{"from":2,"to":0,"time":%[2]g,"qty":3}]}`, n.MaxTime()+1, n.MaxTime()+2)
	s := New(Config{CacheSize: 4096, AllowIngest: true, Workers: 4})
	if err := s.AddNetwork("test", n); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNetwork("dag", buildNet(t, 8, goldenDAG)); err != nil {
		t.Fatal(err)
	}

	var out []goldenEntry
	pass := func() {
		for _, req := range script {
			status, cache1, body := issue(s, req)
			status2, cache2, body2 := issue(s, req)
			if status2 != status || body2 != body {
				t.Fatalf("%s: second issue answered %d %q, first %d %q", req, status2, body2, status, body)
			}
			out = append(out, goldenEntry{Req: req, Status: status, Cache: cache1 + "," + cache2, Body: body})
		}
	}
	pass()
	status, cache, body := issue(s, ingest)
	out = append(out, goldenEntry{Req: ingest, Status: status, Cache: cache, Body: body})
	pass()
	return out
}

func TestGoldenBodies(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(map[string][]goldenEntry{"teg": got}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var fixture map[string][]goldenEntry
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	want := fixture["teg"]
	if len(got) != len(want) {
		t.Fatalf("script has %d entries, fixture %d (regenerate with -update-golden only for a deliberate change)",
			len(got), len(want))
	}
	var sawTEG, sawHit, sawRetained bool
	for i, g := range got {
		if g != want[i] {
			t.Errorf("entry %d:\n got %+v\nwant %+v", i, g, want[i])
		}
		sawTEG = sawTEG || strings.Contains(g.Body, `"method":"teg"`)
		sawHit = sawHit || g.Cache == "miss,hit"
		sawRetained = sawRetained || (i > len(got)/2 && g.Cache == "hit,hit") // second pass
	}
	// The script must keep covering what it was written to cover.
	if !sawTEG || !sawHit || !sawRetained {
		t.Errorf("script covers cyclic pair %t, miss-then-hit %t, retained-across-ingest %t; want all",
			sawTEG, sawHit, sawRetained)
	}
}
