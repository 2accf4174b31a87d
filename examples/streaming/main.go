// The streaming example runs an ingest-enabled flownetd in-process and
// drives the live-update loop a payment-fraud service would: register an
// empty network, stream a first batch of transfers, query a flow, stream
// more transfers, and query again — the answer changes, because the
// network's generation advanced and the stale cached result is no longer
// served. It also shows the out-of-order path: a late-arriving
// transfer is parked, invisible to queries, until an explicit reindex
// merges it.
//
// Against a real deployment the only difference is the base URL:
//
//	flownetd -listen :8080 -allow-ingest
//	client := flownet.NewClient("http://localhost:8080")
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"flownet"
	"flownet/internal/server"
)

func main() {
	srv := server.New(server.Config{CacheSize: 1024, AllowIngest: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Never construct an http.Server without read-side timeouts: a
		// client trickling its request a byte at a time (slowloris) would
		// otherwise pin a goroutine and a descriptor forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())

	ctx := context.Background()
	client := flownet.NewClient("http://" + ln.Addr().String())

	// A service populated entirely over HTTP: no dataset on disk.
	if _, err := client.CreateNetwork(ctx, "payments", 4); err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered empty network \"payments\" (4 accounts)")

	// First batch: account 0 pays 1, who forwards to 2.
	ing, err := client.Ingest(ctx, flownet.IngestRequest{Network: "payments", Interactions: []flownet.IngestInteraction{
		{From: 0, To: 1, Time: 1, Qty: 50},
		{From: 1, To: 2, Time: 2, Qty: 40},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d interactions (generation %d)\n", ing.Appended, ing.Generation)

	queryFlow := func() flownet.FlowResult {
		res, err := client.Flow(ctx, "payments", 0, 2, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flow 0 -> 2: %g\n", res.Flow)
		return res
	}
	queryFlow() // 40: account 1 can forward at most what it received earlier

	// Second batch arrives later: more money moves along the same chain.
	ing, err = client.Ingest(ctx, flownet.IngestRequest{Network: "payments", Interactions: []flownet.IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 30},
		{From: 1, To: 2, Time: 4, Qty: 35},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested more (generation %d)\n", ing.Generation)
	queryFlow() // 75: the appended transfers raise the achievable flow

	// A late transfer surfaces from a lagging feed: time 2.5 is in the
	// past. Parked under allow_out_of_order, it stays invisible...
	ing, err = client.Ingest(ctx, flownet.IngestRequest{
		Network:         "payments",
		AllowOutOfOrder: true,
		Interactions:    []flownet.IngestInteraction{{From: 1, To: 2, Time: 2.5, Qty: 10}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("late transfer parked (%d pending)\n", ing.Pending)
	queryFlow() // still 75

	// ...until a reindex merges it into the canonical order.
	ing, err = client.Ingest(ctx, flownet.IngestRequest{Network: "payments", Reindex: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reindexed (generation %d, %d pending)\n", ing.Generation, ing.Pending)
	queryFlow() // 80: account 1 forwards the 10 leftover units at t=2.5

	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d flow queries, %d ingest requests\n",
		stats.Endpoints["/flow"].Requests, stats.Endpoints["/ingest"].Requests)
}
