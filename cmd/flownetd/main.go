// Command flownetd is a resident flow-query service: it loads one or more
// temporal interaction networks once and serves flow and pattern queries
// over HTTP/JSON until terminated (SIGINT/SIGTERM shut it down gracefully,
// draining in-flight requests).
//
//	flownetd -listen :8080 -net transfers=transfers.txt.gz -net ctu=ctu.txt
//
// Endpoints (see internal/server and the README's Serving section):
//
//	GET  /flow?net=transfers&source=0&sink=42
//	GET  /flow?net=transfers&seed=143&hops=3[&from=10&to=90]
//	POST /flow/batch        {"network":"transfers","seeds":[1,2,143]}
//	GET  /patterns?net=transfers&pattern=P3&mode=pb
//	POST /ingest            append interactions (requires -allow-ingest)
//	POST /networks          register an empty network (requires -allow-ingest)
//	GET  /networks          GET /stats          GET /healthz
//	GET  /metrics           Prometheus text exposition of the /stats counters
//
// Repeated queries are memoized in a bounded LRU (-cache-size entries) and
// replayed byte-identically; every ingested batch bumps the network's
// generation, so stale answers are never replayed. Ingests carry their
// delta: cached answers whose read footprint provably missed the changed
// edges survive the bump, and stale PB pattern tables are patched forward
// over the vertices that every ingest since their build stamped, whatever
// the delta's size (rebuilt in full only after a reindex). -workers
// bounds every worker pool.
// With -allow-ingest the service may start with no -net at all and be
// populated entirely over HTTP.
//
// Overload protection: -query-timeout deadlines every query (expired ones
// answer 504 and are never cached); -max-inflight bounds concurrently
// executing queries, shedding excess load with 503 + Retry-After. The
// control plane (/healthz, /stats, /metrics, ingestion) is never shed.
//
// With -data-dir the catalog is durable (internal/store): every accepted
// ingest batch is written to a per-network WAL before it is acknowledged,
// checkpointed into binary snapshots every -snapshot-every records, and
// the whole catalog — networks created over HTTP included — is recovered
// from the directory on the next start. -wal-sync additionally fsyncs the
// WAL per batch, surviving power loss rather than just process death.
// -mmap serves binary snapshots zero-copy: recovery maps the snapshot file
// read-only instead of decoding it (the interaction arena advised
// MADV_RANDOM, so footprint-bound queries on networks larger than RAM
// fault in only the pages they touch). Ingest leaves the mapped base in
// place — appended interactions live in a heap tail over it — and the
// mapping is released once a fold (the next checkpoint, at the latest) has
// moved the network onto the heap and its last reader is gone.
//
// Exit codes: 0 after a clean shutdown, 1 on a runtime failure, 2 on a
// usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"flownet"
	"flownet/internal/cli"
	"flownet/internal/server"
	"flownet/internal/store"
)

// netList collects repeated -net flags ("name=path", or a bare path whose
// basename becomes the name).
type netList []string

func (f *netList) String() string     { return strings.Join(*f, ",") }
func (f *netList) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.Exit("flownetd", run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, loads the networks,
// binds the listener (logging the resolved address, so -listen :0 works)
// and serves until ctx is cancelled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "", log.LstdFlags)
	fs := flag.NewFlagSet("flownetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var nets netList
	var (
		listen      = fs.String("listen", ":8080", "address to serve on")
		workers     = fs.Int("workers", 0, "worker pool bound for batch and pattern queries (0 = GOMAXPROCS, 1 = sequential)")
		cacheSize   = fs.Int("cache-size", 4096, "result cache capacity in entries (0 = disable caching)")
		precompute  = fs.Bool("precompute", false, "build the PB pattern tables of every network at startup instead of on first use")
		allowIngest = fs.Bool("allow-ingest", false, "enable the write path: POST /ingest and POST /networks")
		dataDir     = fs.String("data-dir", "", "durable storage directory (per-network WAL + binary snapshots); empty = in-memory only")
		walSync     = fs.Bool("wal-sync", false, "fsync the WAL after every accepted batch instead of only at checkpoints (requires -data-dir)")
		snapEvery   = fs.Int("snapshot-every", 0, "WAL records per network that trigger a background snapshot (0 = default 256, negative = never; requires -data-dir)")
		useMmap     = fs.Bool("mmap", false, "serve binary snapshots zero-copy via mmap instead of decoding them (released once ingest has folded a network onto the heap)")
		queryTO     = fs.Duration("query-timeout", 0, "per-request deadline for /flow, /flow/batch and /patterns; expired queries answer 504 (0 = no deadline)")
		maxInflight = fs.Int("max-inflight", 0, "maximum concurrently executing queries; excess load answers 503 + Retry-After (0 = unbounded)")
	)
	fs.Var(&nets, "net", "network to load, as name=path or path (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.ErrUsage
	}
	if *dataDir == "" && (*walSync || *snapEvery != 0) {
		fmt.Fprintln(stderr, "flownetd: -wal-sync and -snapshot-every need -data-dir")
		fs.Usage()
		return cli.ErrUsage
	}

	st, err := store.Open(store.Config{Dir: *dataDir, SyncEveryBatch: *walSync, SnapshotEvery: *snapEvery, Mmap: *useMmap})
	if err != nil {
		return fmt.Errorf("opening data directory %s: %w", *dataDir, err)
	}
	defer st.Close()
	recovered := make(map[string]bool, st.Len())
	for _, sh := range st.Shards() {
		stats := sh.NetStats()
		logger.Printf("recovered %q from %s: %d vertices, %d interactions, generation %d",
			sh.Name(), *dataDir, stats.Vertices, stats.Interactions, sh.Generation())
		recovered[sh.Name()] = true
	}
	if len(nets) == 0 && !*allowIngest && st.Len() == 0 {
		fmt.Fprintln(stderr, "flownetd: at least one -net is required (or -allow-ingest / a non-empty -data-dir to start without one)")
		fs.Usage()
		return cli.ErrUsage
	}

	if *queryTO < 0 || *maxInflight < 0 {
		fmt.Fprintln(stderr, "flownetd: -query-timeout and -max-inflight must be >= 0")
		return cli.ErrUsage
	}
	srv := server.New(server.Config{
		Workers:      *workers,
		CacheSize:    *cacheSize,
		AllowIngest:  *allowIngest,
		Store:        st,
		QueryTimeout: *queryTO,
		MaxInFlight:  *maxInflight,
	})
	for _, spec := range nets {
		name, path := splitNetSpec(spec)
		if recovered[name] {
			// The data directory already holds this network — including
			// everything ingested since it was first loaded. Reloading the
			// file would silently discard that, so the recovered state wins.
			// (A name duplicated between two -net flags is not skipped: it
			// fails in AddNetwork below, as it always has.)
			logger.Printf("skipping -net %s: %q already recovered from %s", path, name, *dataDir)
			continue
		}
		t0 := time.Now()
		load := flownet.LoadNetwork
		if *useMmap {
			load = flownet.LoadNetworkMmap
		}
		n, err := load(path)
		if err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		stats := n.Stats()
		if err := srv.AddNetwork(name, n); err != nil {
			return err
		}
		logger.Printf("loaded %q from %s: %d vertices, %d edges, %d interactions (%v)",
			name, path, stats.Vertices, stats.Edges, stats.Interactions,
			time.Since(t0).Round(time.Millisecond))
	}
	loaded := gcCycles()
	if *precompute {
		t0 := time.Now()
		srv.PrecomputeTables()
		logger.Printf("precomputed pattern tables (%v)", time.Since(t0).Round(time.Millisecond))
	}

	// The loads' garbage — the text reader's blocks and the builder's log,
	// a snapshot's copy — is dead by now, but if the collector's last goal
	// was set while it was live, at about twice the load's peak, the served
	// heap would be allowed to grow to that before its first collection. So
	// collect once, unless a whole cycle has run since the loads returned
	// (the first to end may have begun before), as -precompute's
	// allocations make it: that cycle set the goal from what is served.
	if gcCycles() < loaded+2 {
		runtime.GC()
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	durable := "off"
	if *dataDir != "" {
		durable = *dataDir
	}
	logger.Printf("serving on %s (workers=%d, cache-size=%d, ingest=%v, data-dir=%s)",
		ln.Addr(), *workers, *cacheSize, *allowIngest, durable)
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	// Flush every WAL before reporting a clean exit; the deferred Close is
	// then a no-op (Close is idempotent).
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	logger.Print("shut down cleanly")
	return nil
}

// gcCycles returns how many collection cycles have completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// splitNetSpec splits "name=path" (or derives the name from a bare path's
// basename, with .txt/.gz extensions stripped).
func splitNetSpec(spec string) (name, path string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	name = spec
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	for _, suffix := range []string{".gz", ".txt"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name, spec
}
