package flownet_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"

	flownet "flownet"
	"flownet/internal/server"
)

// TestPublicStoreAPI exercises the root-package durability surface: a
// durable Store created with OpenStore survives a close/reopen with the
// exact acknowledged state, and the error classes are matchable.
func TestPublicStoreAPI(t *testing.T) {
	dir := t.TempDir()
	st, err := flownet.OpenStore(flownet.StoreConfig{Dir: dir, SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := st.Create("payments", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("payments", 3); !errors.Is(err, flownet.ErrStoreDuplicate) {
		t.Fatalf("duplicate Create err = %v, want flownet.ErrStoreDuplicate", err)
	}
	res, err := sh.Append([]flownet.StreamItem{
		{From: 0, To: 1, Time: 1, Qty: 5},
		{From: 1, To: 2, Time: 2, Qty: 5},
	}, flownet.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 2 {
		t.Fatalf("Append result %+v, want Appended=2", res)
	}
	d := sh.Durability()
	if !d.Durable || d.WALRecordsPending == 0 {
		t.Fatalf("durability %+v, want a WAL with pending records", d)
	}
	gen := sh.Generation()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := flownet.OpenStore(flownet.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sh2, ok := st2.Get("payments")
	if !ok {
		t.Fatal("network not recovered")
	}
	if sh2.Generation() != gen {
		t.Fatalf("recovered generation %d, want %d", sh2.Generation(), gen)
	}
	var counters flownet.StoreCounters = st2.Stats()
	if counters.Recoveries != 1 || counters.Networks != 1 {
		t.Fatalf("store counters %+v, want 1 recovery of 1 network", counters)
	}
	sh2.View(func(n *flownet.Network, _ uint64) {
		g, ok := n.FlowSubgraphBetween(0, 2)
		if !ok {
			t.Fatal("no flow subgraph after recovery")
		}
		if f := flownet.MaxFlow(g); f != 5 {
			t.Fatalf("recovered flow = %g, want 5", f)
		}
	})
}

// TestSaveNetworkBinaryRoundTrip: the binary codec is a drop-in replacement
// behind the sniffing LoadNetwork — plain and gzip-compressed.
func TestSaveNetworkBinaryRoundTrip(t *testing.T) {
	n := flownet.GenerateCTU13(flownet.DatasetConfig{Vertices: 60, Seed: 3})
	for _, name := range []string{"net.tinb", "net.tinb.gz"} {
		t.Run(name, func(t *testing.T) { testBinaryRoundTrip(t, n, name) })
	}
}

func testBinaryRoundTrip(t *testing.T, n *flownet.Network, name string) {
	path := filepath.Join(t.TempDir(), name)
	if err := flownet.SaveNetworkBinary(path, n); err != nil {
		t.Fatal(err)
	}
	m, err := flownet.LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.Stats(), m.Stats()
	if a.Vertices != b.Vertices || a.Edges != b.Edges || a.Interactions != b.Interactions {
		t.Fatalf("binary round trip changed the network: %+v vs %+v", a, b)
	}
	// AvgQty is summed in edge order, which reloading may permute; only
	// bit-level rounding may differ.
	if diff := a.AvgQty - b.AvgQty; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("AvgQty drifted across round trip: %v vs %v", a.AvgQty, b.AvgQty)
	}
}

// TestClientHealthz drives Client.Healthz against a flownetd on a durable
// store and checks the durability fields a monitoring client would read.
func TestClientHealthz(t *testing.T) {
	st, err := flownet.OpenStore(flownet.StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := server.New(server.Config{CacheSize: 4, AllowIngest: true, Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := flownet.NewClient(ts.URL).WithHTTPClient(ts.Client())
	ctx := context.Background()

	if _, err := c.CreateNetwork(ctx, "live", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, flownet.IngestRequest{Network: "live", Interactions: []flownet.IngestInteraction{
		{From: 0, To: 1, Time: 1, Qty: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ok {
		t.Fatalf("Healthz %+v, want ok", h)
	}
	var d flownet.DurabilityInfo = h.Networks["live"]
	if !d.Durable || d.WALRecordsPending == 0 || d.WALBytesPending == 0 {
		t.Fatalf("durability info %+v, want pending WAL records", d)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ss flownet.StoreStats = stats.Store
	if !ss.Durable || ss.WALAppends == 0 {
		t.Fatalf("store stats %+v, want durable with WAL appends", ss)
	}
}
