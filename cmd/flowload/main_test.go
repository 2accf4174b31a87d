package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"flownet/internal/datagen"
	"flownet/internal/server"
)

// bootServer starts an in-process flownetd handler (the same internal/
// server cmd/flownetd wraps) over a small deterministic corpus.
func bootServer(t *testing.T, vertices int, scale float64) (*httptest.Server, *server.Server) {
	t.Helper()
	n := datagen.Bitcoin(datagen.Config{Vertices: vertices, Seed: 7, Scale: scale})
	s := server.New(server.Config{CacheSize: 256, AllowIngest: true})
	if err := s.AddNetwork("bench", n); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// TestFlowloadEndToEnd drives the full tentpole path: a short closed-loop
// burst (queries + ingest writers) against a live server, then checks the
// three contracted outputs — the BENCH_load.json artifact with per-route
// p50/p95/p99 and throughput, a human summary on stdout, and exact
// agreement between the server's /metrics histogram _sum/_count and the
// /stats counters for the same run.
func TestFlowloadEndToEnd(t *testing.T) {
	ts, _ := bootServer(t, 60, 0.5)
	out := filepath.Join(t.TempDir(), "BENCH_load.json")

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-net", "bench",
		"-workers", "4",
		"-duration", "2s",
		"-mix", "zipf",
		"-seed", "42",
		"-batch-size", "4",
		"-allow-ingest",
		"-ingest-workers", "1",
		"-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("flowload run: %v\nstderr: %s", err, stderr.String())
	}

	data, readErr := os.ReadFile(out)
	if readErr != nil {
		t.Fatalf("artifact missing: %v", readErr)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not a report: %v\n%s", err, data)
	}
	if rep.Pkg != "flownet/cmd/flowload" || rep.GoOS == "" || rep.GoArch == "" {
		t.Fatalf("artifact envelope incomplete: %+v", rep)
	}
	byName := make(map[string]benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, kind := range []string{opPair, opSeed, opBatch, opPattern, opIngest} {
		b, ok := byName["Load/"+kind]
		if !ok {
			t.Fatalf("artifact has no Load/%s entry; got %v", kind, names(rep))
		}
		if b.Runs == 0 {
			t.Fatalf("Load/%s: zero ops in a 2s closed loop", kind)
		}
		for _, metric := range []string{"ops/s", "p50-ms", "p95-ms", "p99-ms", "mean-ms", "err-rate", "shed-rate", "cache-hit-rate"} {
			if _, ok := b.Metrics[metric]; !ok {
				t.Fatalf("Load/%s missing metric %s: %v", kind, metric, b.Metrics)
			}
		}
		if b.Metrics["p99-ms"] < b.Metrics["p50-ms"] {
			t.Fatalf("Load/%s: p99 %v below p50 %v", kind, b.Metrics["p99-ms"], b.Metrics["p50-ms"])
		}
		if b.Metrics["ops/s"] <= 0 || b.Metrics["p50-ms"] <= 0 {
			t.Fatalf("Load/%s: degenerate metrics %v", kind, b.Metrics)
		}
		if b.Metrics["err-rate"] != 0 {
			t.Fatalf("Load/%s: unexpected errors against a healthy server: %v", kind, b.Metrics)
		}
	}
	// The server-side delta entries ride along for every route the run hit.
	for _, route := range []string{"/flow", "/flow/batch", "/patterns", "/ingest"} {
		b, ok := byName["Server"+route]
		if !ok || b.Runs == 0 {
			t.Fatalf("artifact has no server delta for %s; got %v", route, names(rep))
		}
	}
	for _, want := range []string{"ops/s", "server /stats delta:", "wrote " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout summary missing %q:\n%s", want, stdout.String())
		}
	}

	verifyServerSurfacesAgree(t, ts)
}

// TestFlowloadZipfSkewHitsCache runs a pair-only zipf burst with no ingest
// writers (whose generation bumps would make cached pairs stale between
// queries):
// the skewed key distribution must revisit hot pairs, and the observer
// must surface the server's cache header as a non-zero hit rate.
func TestFlowloadZipfSkewHitsCache(t *testing.T) {
	// A tiny corpus keeps each pair flow cheap (many ops per second) and a
	// sharp exponent concentrates the draws, so repeat pairs are certain.
	ts, _ := bootServer(t, 16, 0.3)
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-net", "bench",
		"-workers", "4",
		"-duration", "1500ms",
		"-mix", "zipf",
		"-zipf-s", "2.5",
		"-weights", "pair=1",
		"-seed", "42",
		"-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("flowload run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		switch b.Name {
		case "Load/" + opPair:
			if b.Runs == 0 || b.Metrics["cache-hit-rate"] == 0 {
				t.Fatalf("zipf pair mix saw no cache hits; skew or caching is broken: %+v", b)
			}
		case "Load/" + opSeed, "Load/" + opBatch, "Load/" + opPattern, "Load/" + opIngest:
			t.Fatalf("weights pair=1 must silence every other kind, got %+v", b)
		}
	}
}

// verifyServerSurfacesAgree is the acceptance check that the two server
// telemetry surfaces describe the same run: for every query route the load
// touched (and which the check's own scrapes cannot touch), the /metrics
// histogram _sum must be exactly /stats' latency_sum_ns scaled to seconds
// and _count exactly latency_count.
func verifyServerSurfacesAgree(t *testing.T, ts *httptest.Server) {
	t.Helper()
	routes := []string{"/flow", "/flow/batch", "/patterns", "/ingest"}

	// Quiesce: a handler the finished load run abandoned keeps computing and
	// records its latency whenever it is done, so the counters are settled
	// only when /stats reads the same before and after /metrics was fetched
	// (and, within one read, requests == latency_count on every route:
	// requests land before their latency observation).
	type endpoints map[string]struct {
		Requests     uint64 `json:"requests"`
		LatencySumNs int64  `json:"latency_sum_ns"`
		LatencyCount uint64 `json:"latency_count"`
	}
	readStats := func() endpoints {
		var st struct {
			Endpoints endpoints `json:"endpoints"`
		}
		getJSON(t, ts, "/stats", &st)
		return st.Endpoints
	}
	var st endpoints
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = readStats()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		after := readStats()
		settled := true
		for _, route := range routes {
			settled = settled && st[route].LatencyCount == st[route].Requests && st[route] == after[route]
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("route counters never settled after the run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, route := range routes {
		ep := st[route]
		if ep.LatencyCount == 0 {
			t.Fatalf("route %s saw no traffic; the load mix is broken", route)
		}
		wantSum := fmt.Sprintf("flownet_request_latency_seconds_sum{route=%q} %s",
			route, strconv.FormatFloat(float64(ep.LatencySumNs)/1e9, 'g', -1, 64))
		wantCount := fmt.Sprintf("flownet_request_latency_seconds_count{route=%q} %d", route, ep.LatencyCount)
		for _, want := range []string{wantSum, wantCount} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics disagrees with /stats: missing %q", want)
			}
		}
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("")
	if err != nil || w[opPair] != defaultWeights[opPair] {
		t.Fatalf("empty spec must give the default mix, got %v, %v", w, err)
	}
	w, err = parseWeights("pair=1, batch=0,pattern=9")
	if err != nil {
		t.Fatal(err)
	}
	if w[opPair] != 1 || w[opBatch] != 0 || w[opPattern] != 9 || w[opSeed] != 0 {
		t.Fatalf("wrong parse: %v", w)
	}
	for _, bad := range []string{"pair", "pair=x", "pair=-1", "flood=3", "pair=0,seed=0"} {
		if _, err := parseWeights(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

// TestPickKindHonorsWeights checks the mix sampler: zero-weight kinds never
// fire and the draw is deterministic for a fixed seed.
func TestPickKindHonorsWeights(t *testing.T) {
	w := &worker{
		rng:     rand.New(rand.NewSource(3)),
		weights: map[string]int{opPair: 1, opSeed: 0, opBatch: 0, opPattern: 3},
	}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[w.pickKind()]++
	}
	if counts[opSeed] != 0 || counts[opBatch] != 0 {
		t.Fatalf("zero-weight kinds fired: %v", counts)
	}
	if counts[opPair] == 0 || counts[opPattern] < counts[opPair] {
		t.Fatalf("draw does not follow the 1:3 weights: %v", counts)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-duration", "0s"},
		{"-mix", "bursty"},
		{"-mix", "zipf", "-zipf-s", "1.0"},
		{"-weights", "flood=1"},
	} {
		if err := run(context.Background(), args, &out, &errBuf); err == nil {
			t.Fatalf("args %v must fail usage validation", args)
		}
	}
}

func names(rep report) []string {
	var ns []string
	for _, b := range rep.Benchmarks {
		ns = append(ns, b.Name)
	}
	return ns
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
