package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flownet/internal/store"
)

// TestAdmissionControlShedsOnlyQueries pins the admission-control contract
// deterministically: with every slot held, query routes shed with 503 +
// Retry-After and the shed counter moves, while the control plane —
// health, stats, networks, metrics — keeps answering; draining a slot
// restores service.
func TestAdmissionControlShedsOnlyQueries(t *testing.T) {
	s, ts, n := newTestServer(t, Config{CacheSize: 8, MaxInFlight: 2})
	src, snk := firstReachablePair(t, n)
	flowPath := fmt.Sprintf("/flow?net=test&source=%d&sink=%d", src, snk)

	// Occupy both slots as if two long queries were executing.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodGet, flowPath, ""},
		{http.MethodPost, "/flow/batch", `{"network":"test","seeds":[0]}`},
		{http.MethodGet, "/patterns?net=test&pattern=P1&mode=gb", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s at capacity: want 503, got %d", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
			t.Fatalf("%s %s: want Retry-After %q, got %q", tc.method, tc.path, retryAfterSeconds, got)
		}
	}
	if got := s.metrics["/flow"].shed.Load(); got != 1 {
		t.Fatalf("want 1 shed request counted on /flow, got %d", got)
	}

	// The control plane must answer precisely when the server is saturated.
	for _, path := range []string{"/healthz", "/stats", "/networks", "/metrics"} {
		if code, _, _ := get(t, ts, path, nil); code != http.StatusOK {
			t.Fatalf("GET %s at capacity: want 200, got %d", path, code)
		}
	}

	// One slot frees; queries flow again.
	<-s.inflight
	if code, _, _ := get(t, ts, flowPath, nil); code != http.StatusOK {
		t.Fatalf("after draining a slot: want 200, got %d", code)
	}

	// The shed shows up in the operator surface.
	var st StatsResult
	if code, _, _ := get(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatal("stats unavailable")
	}
	if st.Endpoints["/flow"].Shed != 1 {
		t.Fatalf("stats must surface the shed count, got %+v", st.Endpoints["/flow"])
	}
}

// TestQueryTimeout504NeverPollutesCache pins the deadline contract: with
// an unmeetable -query-timeout every query route answers 504 — and none of
// the abandoned partial results lands in the response cache, where it
// would be replayed as a fake answer once the client retried with a
// healthier deadline.
func TestQueryTimeout504NeverPollutesCache(t *testing.T) {
	s, ts, n := newTestServer(t, Config{CacheSize: 8, QueryTimeout: time.Nanosecond})
	src, snk := firstReachablePair(t, n)

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodGet, fmt.Sprintf("/flow?net=test&source=%d&sink=%d", src, snk), ""},
		{http.MethodGet, "/flow?net=test&seed=0", ""},
		{http.MethodPost, "/flow/batch", `{"network":"test","seeds":[0,1,2]}`},
		{http.MethodGet, "/patterns?net=test&pattern=P1&mode=gb", ""},
		{http.MethodGet, "/patterns?net=test&pattern=P3&mode=pb", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s %s with 1ns deadline: want 504, got %d", tc.method, tc.path, resp.StatusCode)
		}
	}
	if got := s.cache.Stats().Len; got != 0 {
		t.Fatalf("timed-out queries must not pollute the cache, found %d entries", got)
	}
}

// TestPanicRecoveryMiddleware drives a panicking handler through the
// instrumentation wrapper: the request becomes a logged 500, the panic is
// counted (and surfaced at /stats), and the route counters still run.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	h := s.instrument("/flow", func(w http.ResponseWriter, r *http.Request) {
		panic("boom: violated invariant")
	})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/flow", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: want 500, got %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "panic recovered") {
		t.Fatalf("500 body should point at the server log: %s", rr.Body.String())
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("want 1 panic counted, got %d", got)
	}
	m := s.metrics["/flow"]
	if m.requests.Load() == 0 || m.errors.Load() == 0 {
		t.Fatal("panicking requests must still hit the route counters")
	}

	// A panic after the handler started writing cannot be turned into a
	// 500 — the headers are gone — but it must still be counted.
	h = s.instrument("/flow", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"partial":`))
		panic("boom mid-body")
	})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/flow", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("headers were already sent; status cannot change, got %d", rr.Code)
	}
	if got := s.panics.Load(); got != 2 {
		t.Fatalf("want 2 panics counted, got %d", got)
	}

	// /stats carries the counter.
	var st StatsResult
	if code, _, _ := get(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatal("stats unavailable")
	}
	if st.Panics != 2 {
		t.Fatalf("stats must surface panics, got %d", st.Panics)
	}
}

// TestMetricsEndpoint checks the hand-rolled Prometheus exposition: right
// content type, the key families present, and counters that actually move
// with traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 8})
	src, snk := firstReachablePair(t, n)
	flowPath := fmt.Sprintf("/flow?net=test&source=%d&sink=%d", src, snk)
	get(t, ts, flowPath, nil) // miss
	get(t, ts, flowPath, nil) // hit

	// The route counters increment in a deferred block that can lag the
	// response by a scheduler tick; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("wrong exposition content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		// The latency observation is the last counter record() touches, so
		// once it reads 2 every other /flow counter has landed too.
		if strings.Contains(body, `flownet_request_latency_seconds_count{route="/flow"} 2`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("latency count never reached 2; body:\n%s", body)
		}
		time.Sleep(time.Millisecond)
	}

	for _, want := range []string{
		"# TYPE flownet_requests_total counter",
		`flownet_requests_total{route="/flow"} 2`,
		"# TYPE flownet_request_latency_seconds histogram",
		`flownet_request_latency_seconds_bucket{route="/flow",le="+Inf"} 2`,
		`flownet_request_latency_seconds_count{route="/flow"} 2`,
		`flownet_cache_lookups_total{outcome="hit"} 1`,
		`flownet_cache_lookups_total{outcome="miss"} 1`,
		"flownet_panics_total 0",
		`flownet_shed_total{route="/flow"} 0`,
		`flownet_network_generation{network="test"} 1`,
		`flownet_network_degraded{network="test"} 0`,
		"flownet_inflight_queries 0",
		"# TYPE flownet_uptime_seconds gauge",
		"flownet_store_wal_appends_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q; body:\n%s", want, body)
		}
	}
}

// stalledWriter is a client that stops reading: its first Write signals
// entered and then blocks until release is closed.
type stalledWriter struct {
	*httptest.ResponseRecorder
	entered, release chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return w.ResponseRecorder.Write(p)
}

// TestSlowClientDoesNotBlockIngest pins that no query route holds the
// network's read lock while it writes its response: with a client stalled
// mid-write on each route, miss or hit, an append must still go through —
// before this was fixed it queued behind the read lock, and every later
// reader of the network behind the queued writer. The stalled response,
// once drained, is still the answer of the version it was computed on.
func TestSlowClientDoesNotBlockIngest(t *testing.T) {
	for _, cacheSize := range []int{0, 16} { // a computed answer, a replayed one
		s := New(Config{CacheSize: cacheSize, AllowIngest: true})
		if err := s.AddNetwork("live", buildNet(t, 3, chainItems)); err != nil {
			t.Fatal(err)
		}
		sh, err := s.store.Resolve("live")
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range []string{
			"GET /flow?source=0&sink=2",
			`POST /flow/batch {"seeds":[0,1,2]}`,
			"GET /patterns?pattern=P2&mode=gb",
		} {
			_, _, want := issue(s, req)
			w := &stalledWriter{httptest.NewRecorder(), make(chan struct{}), make(chan struct{})}
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.Handler().ServeHTTP(w, scripted(req))
			}()
			<-w.entered

			appended := make(chan error, 1)
			go func() {
				_, err := sh.Append([]store.Item{{From: 0, To: 1, Time: float64(10 + i), Qty: 1}}, store.Options{})
				appended <- err
			}()
			select {
			case err := <-appended:
				if err != nil {
					t.Fatalf("cache %d, %s: append: %v", cacheSize, req, err)
				}
			case <-time.After(2 * time.Second):
				close(w.release)
				t.Fatalf("cache %d, %s: append blocked behind a client that is not reading its response", cacheSize, req)
			}

			close(w.release)
			<-served
			if got := w.Body.String(); w.Code != http.StatusOK || got != want {
				t.Fatalf("cache %d, %s: stalled response = %d %q, want 200 %q", cacheSize, req, w.Code, got, want)
			}
		}
	}
}
