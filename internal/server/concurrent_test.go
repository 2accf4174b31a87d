package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// TestConcurrentClients hammers one server from many goroutines (run under
// -race in CI) and asserts every response equals the corresponding direct
// library call. A small cache forces concurrent hits, misses and evictions
// on the same LRU.
func TestConcurrentClients(t *testing.T) {
	_, ts, n := newTestServer(t, Config{CacheSize: 8, Workers: 2})
	seeds := firstSeeds(t, n, 6)

	// Expected values, computed directly, before any request is served.
	extract := tin.DefaultExtractOptions()
	wantSeed := make(map[tin.VertexID]float64, len(seeds))
	for _, r := range lpSeedFlows(t, n, seeds, extract) {
		wantSeed[r.Seed] = r.Flow
	}
	tables := pattern.Precompute(n, true)
	wantPattern := make(map[string]pattern.Summary)
	for _, name := range []string{"P2", "P3", "RP2"} {
		sum, err := pattern.SearchPB(n, tables, pattern.ByName(name), pattern.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantPattern[name] = sum
	}
	batchSeeds := seeds[:4]
	wantBatch := lpSeedFlows(t, n, batchSeeds, extract)
	batchBody, _ := json.Marshal(BatchRequest{Seeds: []int{int(batchSeeds[0]), int(batchSeeds[1]), int(batchSeeds[2]), int(batchSeeds[3])}})

	const goroutines = 8
	const iterations = 15
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < iterations; i++ {
				switch (w + i) % 3 {
				case 0: // seed flow
					v := seeds[(w+i)%len(seeds)]
					resp, err := client.Get(fmt.Sprintf("%s/flow?seed=%d", ts.URL, v))
					if err != nil {
						errc <- err
						return
					}
					var res FlowResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if !res.Ok || !closeEnough(res.Flow, wantSeed[v]) {
						errc <- fmt.Errorf("seed %d: served %+v, want flow %v", v, res, wantSeed[v])
						return
					}
				case 1: // pattern search
					names := [...]string{"P2", "P3", "RP2"}
					name := names[(w+i)%len(names)]
					resp, err := client.Get(ts.URL + "/patterns?pattern=" + name)
					if err != nil {
						errc <- err
						return
					}
					var res PatternResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					want := wantPattern[name]
					if res.Instances != want.Instances || res.TotalFlow != want.TotalFlow {
						errc <- fmt.Errorf("pattern %s: served %+v, want %+v", name, res, want)
						return
					}
				default: // batch
					resp, err := client.Post(ts.URL+"/flow/batch", "application/json", bytes.NewReader(batchBody))
					if err != nil {
						errc <- err
						return
					}
					var res BatchResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					for j, want := range wantBatch {
						if res.Results[j].Ok != want.Ok || !closeEnough(res.Results[j].Flow, want.Flow) {
							errc <- fmt.Errorf("batch seed %d: served %+v, want %+v", want.Seed, res.Results[j], want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The shared cache must have seen traffic and stayed within bounds.
	var stats StatsResult
	get(t, ts, "/stats", &stats)
	if stats.Cache.Hits == 0 || stats.Cache.Len > 8 {
		t.Fatalf("unexpected cache stats after concurrent load: %+v", stats.Cache)
	}
}

// TestConcurrentPrecompute checks that the lazy one-time table build is
// safe when the first PB queries race.
func TestConcurrentPrecompute(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheSize: 0})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/patterns?pattern=P2&mode=pb")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
