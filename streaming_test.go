package flownet_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	flownet "flownet"
	"flownet/internal/server"
)

// TestPublicStreamingAPI exercises the root-package streaming surface:
// Network.AppendBatch extends a network in place, and the Shard that
// NewLiveNetwork returns arbitrates concurrent appends and queries with
// generations.
func TestPublicStreamingAPI(t *testing.T) {
	b := flownet.NewNetwork(3)
	b.AddInteraction(0, 1, 1, 5)
	b.AddInteraction(1, 2, 2, 5)
	n := b.Finalize()

	if _, err := n.AppendBatch([]flownet.BatchItem{{From: 0, To: 1, Time: 3, Qty: 2}, {From: 1, To: 2, Time: 4, Qty: 2}}); err != nil {
		t.Fatalf("Network.AppendBatch: %v", err)
	}
	if _, err := n.AppendBatch([]flownet.BatchItem{{From: 0, To: 2, Time: 1, Qty: 1}}); !errors.Is(err, flownet.ErrOutOfOrder) {
		t.Fatalf("late AppendBatch err = %v, want flownet.ErrOutOfOrder", err)
	}
	g, ok := n.FlowSubgraphBetween(0, 2)
	if !ok {
		t.Fatal("no flow subgraph after appends")
	}
	if f := flownet.MaxFlow(g); f != 7 {
		t.Fatalf("flow after appends = %g, want 7", f)
	}

	live, err := flownet.NewLiveNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Append([]flownet.BatchItem{{From: 0, To: 1, Time: 9, Qty: 1}}, flownet.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 1 || res.Generation != 2 {
		t.Fatalf("Shard.Append result %+v, want Appended=1 Generation=2", res)
	}
	if flownet.NewEmptyLiveNetwork(5).NetStats().Vertices != 5 {
		t.Fatal("NewEmptyLiveNetwork vertex count wrong")
	}
}

// TestClientIngest drives the client's write path against an in-process
// ingest-enabled flownetd: create a network, stream interactions, observe
// the flow change and the cache miss/hit cycle per generation.
func TestClientIngest(t *testing.T) {
	s := server.New(server.Config{CacheSize: 32, AllowIngest: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := flownet.NewClient(ts.URL).WithHTTPClient(ts.Client())
	ctx := context.Background()

	created, err := c.CreateNetwork(ctx, "live", 3)
	if err != nil {
		t.Fatal(err)
	}
	if created.Name != "live" || created.Generation != 1 {
		t.Fatalf("CreateNetwork result %+v", created)
	}

	ing, err := c.Ingest(ctx, flownet.IngestRequest{Network: "live", Interactions: []flownet.IngestInteraction{
		{From: 0, To: 1, Time: 1, Qty: 5},
		{From: 1, To: 2, Time: 2, Qty: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Appended != 2 {
		t.Fatalf("Ingest result %+v, want Appended=2", ing)
	}

	res, err := c.Flow(ctx, "live", 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || res.Flow != 5 {
		t.Fatalf("flow after ingest %+v, want Ok flow 5", res)
	}

	ing, err = c.Ingest(ctx, flownet.IngestRequest{Network: "live", Interactions: []flownet.IngestInteraction{
		{From: 0, To: 1, Time: 3, Qty: 2},
		{From: 1, To: 2, Time: 4, Qty: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Generation != 3 {
		t.Fatalf("generation after second ingest = %d, want 3", ing.Generation)
	}
	if res, err = c.Flow(ctx, "live", 0, 2, nil); err != nil || res.Flow != 7 {
		t.Fatalf("flow after second ingest = %+v (err %v), want 7", res, err)
	}

	// Ingest into a read-only server fails loudly through the client.
	ro := server.New(server.Config{CacheSize: 4})
	if err := ro.AddNetwork("fixed", flownet.GenerateCTU13(flownet.DatasetConfig{Vertices: 50, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	rots := httptest.NewServer(ro.Handler())
	t.Cleanup(rots.Close)
	roc := flownet.NewClient(rots.URL).WithHTTPClient(rots.Client())
	if _, err := roc.Ingest(ctx, flownet.IngestRequest{Network: "fixed",
		Interactions: []flownet.IngestInteraction{{From: 0, To: 1, Time: 1, Qty: 1}}}); err == nil {
		t.Fatal("Ingest against a read-only server succeeded, want error")
	}
}
