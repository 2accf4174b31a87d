// Package server implements flownetd, a resident flow-query service over
// temporal interaction networks (cmd/flownetd is the thin CLI wrapper).
//
// The paper's §6.2 workload — many independent source/sink flow queries and
// pattern searches against one large network — pays full process startup
// and disk load per query when run through the CLIs. flownetd instead loads
// each network once, keeps it resident, and answers queries over HTTP/JSON:
//
//	GET  /flow        one flow computation (pair or seed addressing)
//	POST /flow/batch  the §6.2 per-seed experiment on a worker pool
//	GET  /patterns    a pattern search (GB, or PB over lazily built tables)
//	GET  /networks    the loaded networks and their sizes
//	GET  /stats       per-endpoint counters, cache stats, uptime
//	GET  /healthz     liveness probe
//
// Loaded networks are finalized and immutable and every query entry point
// of the library is read-only (see the root package's Concurrency section),
// so requests are served fully concurrently. Successful /flow, /flow/batch
// and /patterns responses are memoized in a bounded LRU (internal/cache)
// keyed by the normalized query, and cached hits replay the stored bytes
// verbatim — a repeated query returns a byte-identical body without
// touching the flow machinery. The X-Flownet-Cache response header reports
// "hit" or "miss".
//
// Network ownership lives in internal/store, not here: the store is the
// catalog (registration, lookup, ingestion, durability) and this package
// is only the HTTP surface over it. Cache invalidation and PB-table
// staleness are driven by the store's delta-bearing change notifications
// (store.SubscribeDelta): a generation bump re-keys memoized responses
// whose recorded read footprint provably missed the ingested edges (and
// drops only the rest), and the lazily built pattern tables are patched
// forward with pattern.Tables.Update for small deltas instead of being
// rebuilt from scratch. See derived.go for the machinery and /stats
// "derived" for the update/rebuild and retained/purged counters.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flownet/internal/cache"
	"flownet/internal/core"
	"flownet/internal/par"
	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/teg"
	"flownet/internal/tin"
)

// Defaults of the §6.2 extraction knobs (tin.DefaultExtractOptions) and of
// the request body cap.
const (
	defaultHops    = 3
	defaultMaxIA   = 10000
	maxBodyBytes   = 8 << 20
	maxCachedBytes = 4 << 20
	// maxCreateVertices caps POST /networks so one request cannot allocate
	// unbounded adjacency arrays. tin.MaxVertices is the shared ceiling, so
	// anything this endpoint accepts, the store can recover.
	maxCreateVertices = tin.MaxVertices
	// statusClientClosedRequest is nginx's conventional status for requests
	// the client abandoned; the client never sees it, but it keeps the
	// error metrics honest about why the batch was cut short.
	statusClientClosedRequest = 499
)

// Window bounds used when only one side of (from, to) is given.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// Config configures a Server.
type Config struct {
	// Workers bounds every worker pool the server uses (batch flow and
	// per-instance pattern flows): 0 selects GOMAXPROCS, 1 or negative
	// runs sequentially. Per-request workers are clamped to this bound.
	Workers int
	// CacheSize is the result cache capacity in entries; 0 or negative
	// disables caching.
	CacheSize int
	// Engine is the exact solver for class-C instances (default EngineLP).
	Engine core.Engine
	// AllowIngest enables the write path: POST /ingest (append interactions
	// to a loaded network) and POST /networks (register a new empty
	// network). Off by default; both endpoints answer 403 then.
	AllowIngest bool
	// Store is the network catalog the server serves. Nil selects a fresh
	// in-memory (non-durable) store; cmd/flownetd passes a durable one
	// opened on -data-dir so the catalog survives restarts.
	Store *store.Store
	// QueryTimeout bounds each query request (/flow, /flow/batch,
	// /patterns): the handler runs under a context with this deadline, and
	// expiry answers 504 without caching the partial result. 0 disables
	// per-request deadlines. Health, stats and ingest endpoints are not
	// subject to it.
	QueryTimeout time.Duration
	// MaxInFlight bounds how many query requests execute concurrently;
	// excess load is shed with 503 + Retry-After instead of queueing
	// unboundedly. 0 disables admission control. Health and stats endpoints
	// are never shed.
	MaxInFlight int
}

// Server serves flow and pattern queries over the networks owned by its
// store. Create one with New, add finalized networks with AddNetwork (or
// hand New a pre-populated store), then serve Handler (or call
// ListenAndServe).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *store.Store
	cache   *cache.Cache[string, cachedResponse]
	started time.Time
	metrics map[string]*endpointMetrics
	// inflight is the admission semaphore of the query routes (nil =
	// unbounded); panics counts handler panics the recovery middleware
	// converted into 500s.
	inflight chan struct{}
	panics   atomic.Uint64

	// tableThreshold is the changed-edge count up to which stale PB tables
	// are patched forward instead of rebuilt (tableUpdateThreshold; a field
	// so in-package tests can lower or disable it); derived holds the
	// update/rebuild and retained/purged counters (see derived.go).
	tableThreshold int
	derived        derivedStats

	// tables caches the lazily built PB path tables per network name. This
	// is derived, rebuildable state — the store owns the networks
	// themselves.
	tablesMu sync.Mutex
	tables   map[string]*tableCache

	// dirty accumulates, per network, the coalesced delta of every
	// generation bump since the last retention sweep; a single sweeper
	// goroutine (purging) coalesces bursts so ingest-heavy traffic runs at
	// most one cache scan at a time. See derived.go.
	dirtyMu sync.Mutex
	dirty   map[string]*sweepDelta
	purging bool
}

// routes lists every instrumented endpoint, in /stats display order.
var routes = []string{"/flow", "/flow/batch", "/patterns", "/ingest", "/networks", "/stats", "/healthz", "/metrics"}

// New creates a server over cfg.Store (or a fresh in-memory store when
// nil). Every change the store accepts — from this server's /ingest or
// from any other store client — drives that network's derived state: the
// PB table cache accumulates the changed edges and the retention sweep
// re-keys or drops cached responses (see derived.go). The subscription
// lasts for the store's lifetime (store.SubscribeDelta has no
// unsubscribe), so create at most one server per store and let them share
// that lifetime; a discarded server would otherwise stay pinned by the
// store's callback list.
func New(cfg Config) *Server {
	st := cfg.Store
	if st == nil {
		st, _ = store.Open(store.Config{}) // memory-only Open cannot fail
	}
	s := &Server{
		cfg:     cfg,
		store:   st,
		cache:   cache.New[string, cachedResponse](cfg.CacheSize),
		started: time.Now(),
		metrics: make(map[string]*endpointMetrics, len(routes)),
		tables:  make(map[string]*tableCache),
		dirty:   make(map[string]*sweepDelta),

		tableThreshold: tableUpdateThreshold,
	}
	st.SubscribeDelta(s.onStoreDelta)
	for _, r := range routes {
		s.metrics[r] = newEndpointMetrics()
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.mux = http.NewServeMux()
	// Query routes carry the overload guard (admission + deadline); the
	// control plane (ingest, health, stats, metrics) stays unguarded so it
	// keeps answering while the query side is saturated.
	s.mux.Handle("GET /flow", s.instrument("/flow", s.guard("/flow", s.handleFlow)))
	s.mux.Handle("POST /flow/batch", s.instrument("/flow/batch", s.guard("/flow/batch", s.handleBatch)))
	s.mux.Handle("GET /patterns", s.instrument("/patterns", s.guard("/patterns", s.handlePatterns)))
	s.mux.Handle("GET /networks", s.instrument("/networks", s.handleNetworks))
	s.mux.Handle("POST /networks", s.instrument("/networks", s.handleCreateNetwork))
	s.mux.Handle("POST /ingest", s.instrument("/ingest", s.handleIngest))
	s.mux.Handle("GET /stats", s.instrument("/stats", s.handleStats))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// AddNetwork registers a finalized network under the given name — a thin
// wrapper over the store's Add (which, on a durable store, also writes the
// network's initial snapshot). When exactly one network is loaded,
// requests may omit the network parameter. The caller must not use n
// directly afterwards: the store wraps it for live updates, and direct
// access would race with ingestion.
func (s *Server) AddNetwork(name string, n *tin.Network) error {
	if n == nil || !n.Finalized() {
		return fmt.Errorf("server: network %q must be non-nil and finalized", name)
	}
	_, err := s.store.Add(name, n)
	return err
}

// Store returns the network catalog the server serves.
func (s *Server) Store() *store.Store { return s.store }

// PrecomputeTables eagerly builds the PB path tables of every loaded
// network (they are otherwise built on the first /patterns?mode=pb query).
func (s *Server) PrecomputeTables() {
	for _, sh := range s.store.Shards() {
		tc := s.tablesFor(sh)
		sh.View(func(n *tin.Network, gen uint64) {
			tc.get(n, gen)
		})
	}
}

// Handler returns the service's HTTP handler. It is safe for concurrent
// use; register networks with AddNetwork before serving.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves Handler on addr until ctx is cancelled, then shuts
// down gracefully, draining in-flight requests for up to 10 seconds. It
// returns nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe on a caller-provided listener — the hook that
// lets cmd/flownetd (and its tests) bind port 0 and report the actual
// address before serving.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Read-side timeouts close slowloris connections (headers or bodies
	// trickled byte-by-byte hold a goroutine and a file descriptor each);
	// the idle timeout reclaims abandoned keep-alive connections. There is
	// deliberately no WriteTimeout: a legitimate heavy query (a full batch
	// over a large network) may stream its response for longer than any
	// fixed cap, and the per-request QueryTimeout already bounds handler
	// time where the operator wants it bounded.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// network resolves the "net" query parameter (or BatchRequest.Network):
// empty selects the sole loaded network, anything else must match a name.
func (s *Server) network(name string) (*store.Shard, error) {
	return s.store.Resolve(name)
}

// workers clamps a per-request worker count to the server's bound.
func (s *Server) workers(requested int) int {
	limit := par.Workers(s.cfg.Workers)
	if requested == 0 {
		return limit
	}
	if w := par.Workers(requested); w < limit {
		return w
	}
	return limit
}

// ---- response plumbing ------------------------------------------------

func writeRaw(w http.ResponseWriter, status int, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set("X-Flownet-Cache", cacheStatus)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, append(body, '\n'), "")
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// respond marshals a successful result, memoizes it under key (unless key
// is empty) and writes it with the cache-status header. Bodies above
// maxCachedBytes are served but not cached: the LRU is bounded in entry
// count, so admitting huge batch responses would make its byte footprint
// effectively unbounded. A response produced under an already-expired or
// cancelled request context is served but never cached either — a handler
// that happened to finish right at the deadline must not plant a result
// the timed-out path would have refused to compute.
//
// foot is the answer's read footprint (ascending vertex ids; nil =
// unknown), recorded with the entry so the retention sweep can keep it
// alive across ingests that provably missed it (see derived.go). Large
// footprints are demoted to unknown by clampFootprint.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, key string, foot []tin.VertexID, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	body = append(body, '\n')
	if key != "" && len(body) <= maxCachedBytes && r.Context().Err() == nil {
		s.cache.Put(key, cachedResponse{body: body, foot: clampFootprint(foot)})
	}
	writeRaw(w, http.StatusOK, body, "miss")
}

// writeCtxError maps a request context error to its HTTP status: deadline
// expiry (the server's own QueryTimeout) is 504, a client disconnect is
// the conventional 499.
func writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "query timed out (server -query-timeout); narrow the query or raise the limit")
		return
	}
	writeError(w, statusClientClosedRequest, "client closed request")
}

// serveCached replays a memoized response if one exists.
func (s *Server) serveCached(w http.ResponseWriter, route, key string) bool {
	v, ok := s.cache.Get(key)
	if !ok {
		return false
	}
	s.metrics[route].cacheHits.Add(1)
	writeRaw(w, http.StatusOK, v.body, "hit")
	return true
}

// ---- parameter parsing ------------------------------------------------

// intParam parses an integer query parameter, returning def when absent.
func intParam(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// floatParam parses a float query parameter; ok is false when absent.
func floatParam(q url.Values, name string) (float64, bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false, fmt.Errorf("parameter %s=%q is not a number", name, raw)
	}
	return v, true, nil
}

func (s *Server) vertexParam(q url.Values, name string, n *tin.Network) (tin.VertexID, bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v >= n.NumVertices() {
		return 0, true, fmt.Errorf("parameter %s=%q is not a vertex id in [0,%d)", name, raw, n.NumVertices())
	}
	return tin.VertexID(v), true, nil
}

// extractParams parses the shared §6.2 extraction knobs: hops (default 3,
// must be >= 2) and maxinteractions (default 10000, negative = no cap).
func extractParams(hops, maxIA int) (tin.ExtractOptions, error) {
	if hops == 0 {
		hops = defaultHops
	}
	if hops < 2 {
		return tin.ExtractOptions{}, fmt.Errorf("hops must be >= 2, got %d", hops)
	}
	if maxIA == 0 {
		maxIA = defaultMaxIA
	} else if maxIA < 0 {
		maxIA = 0 // tin's "no cap"
	}
	return tin.ExtractOptions{MaxHops: hops, MaxInteractions: maxIA}, nil
}

// fmtFloat renders a float for cache keys (shortest round-trip form).
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// parseFlowQuery turns GET /flow parameters into the normalised extraction
// query: seed addressing (seed, with the §6.2 knobs hops / maxinteractions)
// or pair addressing (source, sink), either with an optional inclusive time
// window (from, to; a missing side is unbounded). The footprint is always
// requested — it is the staleness certificate under which the retention
// sweep may keep the answer alive across ingests.
func (s *Server) parseFlowQuery(p url.Values, n *tin.Network) (tin.Query, error) {
	q := tin.Query{Footprint: true}
	seed, seedMode, err := s.vertexParam(p, "seed", n)
	if err != nil {
		return q, err
	}
	from, hasFrom, err1 := floatParam(p, "from")
	to, hasTo, err2 := floatParam(p, "to")
	if err := errors.Join(err1, err2); err != nil {
		return q, err
	}
	if hasFrom || hasTo {
		if !hasFrom {
			from = negInf
		}
		if !hasTo {
			to = posInf
		}
		q.Window = &tin.TimeWindow{From: from, To: to}
	}
	if seedMode {
		hops, err1 := intParam(p, "hops", 0)
		maxIA, err2 := intParam(p, "maxinteractions", 0)
		if err := errors.Join(err1, err2); err != nil {
			return q, err
		}
		opts, err := extractParams(hops, maxIA)
		if err != nil {
			return q, err
		}
		q.Source, q.Sink = seed, seed
		q.MaxHops, q.MaxInteractions = opts.MaxHops, opts.MaxInteractions
		return q, nil
	}
	src, haveSrc, err1 := s.vertexParam(p, "source", n)
	snk, haveSnk, err2 := s.vertexParam(p, "sink", n)
	if err := errors.Join(err1, err2); err != nil {
		return q, err
	}
	if !haveSrc || !haveSnk {
		return q, errors.New("give either seed, or both source and sink")
	}
	if src == snk {
		return q, fmt.Errorf("source and sink must differ (use seed=%d for returning-path flow)", src)
	}
	q.Source, q.Sink = src, snk
	return q, nil
}

// flowQueryKey renders a normalised /flow query as the <query> part of its
// cache key.
func flowQueryKey(q tin.Query) string {
	window := ""
	if q.Window != nil {
		window = fmtFloat(q.Window.From) + ";" + fmtFloat(q.Window.To)
	}
	if q.Source == q.Sink {
		return fmt.Sprintf("seed|%d|%d|%d|%s", q.Source, q.MaxHops, q.MaxInteractions, window)
	}
	return fmt.Sprintf("pair|%d|%d|%s", q.Source, q.Sink, window)
}

// ---- handlers ---------------------------------------------------------

// handleFlow answers GET /flow, seed and pair addressing alike, as one
// pipeline: parse and normalise the query, look its key up in the response
// cache, extract the subgraph (the time window is applied during
// extraction — out-of-window interactions are never materialized), solve
// it, and respond.
func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	sh, err := s.network(p.Get("net"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Hold the read lock for the whole query: the network version that
	// resolves the parameters is the one that answers, and gen tags every
	// cache key so an ingest (which bumps gen) can never serve this
	// version's answer to a later request.
	n, gen, release := sh.Acquire()
	defer release()
	q, err := s.parseFlowQuery(p, n)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := cacheKey("flow", sh.Name(), gen, flowQueryKey(q))
	if s.serveCached(w, "/flow", key) {
		return
	}
	// The extraction and the solve are the expensive stages; the context
	// is polled before each so an expired deadline fails fast (504)
	// instead of burning a worker on an answer nobody is waiting for.
	if err := r.Context().Err(); err != nil {
		writeCtxError(w, err)
		return
	}
	res := FlowResult{Network: sh.Name(), Query: "pair", Source: int(q.Source), Sink: int(q.Sink)}
	if q.Source == q.Sink {
		res = FlowResult{Network: sh.Name(), Query: "seed", Seed: int(q.Source)}
	}
	x := n.Extract(q)
	if x.Ok {
		if err := r.Context().Err(); err != nil {
			writeCtxError(w, err)
			return
		}
		if err := s.solveFlow(x.Graph, &res); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	s.respond(w, r, key, x.Footprint, res)
}

// solveFlow runs the PreSim pipeline on g (or the time-expanded engine when
// g is cyclic — pair subgraphs may be) and fills res.
func (s *Server) solveFlow(g *tin.Graph, res *FlowResult) error {
	res.Ok = true
	res.Vertices = g.NumLiveVertices()
	res.Edges = g.NumLiveEdges()
	res.Interactions = g.NumInteractions()
	if !g.IsDAG() {
		res.Flow = teg.MaxFlow(g)
		res.Method = "teg"
		res.UsedEngine = true
		return nil
	}
	r, err := core.PreSim(g, s.cfg.Engine)
	if err != nil {
		return err
	}
	res.Flow = r.Flow
	res.Class = r.Class.String()
	res.Method = "presim"
	res.UsedEngine = r.UsedEngine
	return nil
}

// handleBatch answers POST /flow/batch: BatchFlowSeeds over the JSON-listed
// seeds (or every vertex with "all": true).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	sh, err := s.network(req.Network)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	n, gen, release := sh.Acquire()
	defer release()
	opts, err := extractParams(req.Hops, req.MaxInteractions)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var seeds []tin.VertexID
	var seedsKey string
	switch {
	case req.All && len(req.Seeds) > 0:
		writeError(w, http.StatusBadRequest, "give either seeds or all, not both")
		return
	case req.All:
		seeds = make([]tin.VertexID, n.NumVertices())
		for i := range seeds {
			seeds[i] = tin.VertexID(i)
		}
		seedsKey = "all"
	case len(req.Seeds) > 0:
		var b strings.Builder
		for i, v := range req.Seeds {
			if v < 0 || v >= n.NumVertices() {
				writeError(w, http.StatusBadRequest, "seed %d is not a vertex id in [0,%d)", v, n.NumVertices())
				return
			}
			seeds = append(seeds, tin.VertexID(v))
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		seedsKey = b.String()
		// Long seed lists are hashed so the entry-count-bounded LRU does
		// not hold multi-MB keys.
		if len(seedsKey) > 64 {
			sum := sha256.Sum256([]byte(seedsKey))
			seedsKey = "h:" + hex.EncodeToString(sum[:])
		}
	default:
		writeError(w, http.StatusBadRequest, "no seeds given (pass seeds or all)")
		return
	}
	// Workers are excluded from the key: results are identical for every
	// worker count (see the library's Concurrency guarantee).
	key := cacheKey("batch", sh.Name(), gen, fmt.Sprintf("%d|%d|%s", opts.MaxHops, opts.MaxInteractions, seedsKey))
	if s.serveCached(w, "/flow/batch", key) {
		return
	}
	// The request context aborts the remaining seeds when the client
	// disconnects mid-batch or the server's QueryTimeout expires; a
	// cancelled batch is partial and must not be cached or reported as
	// success.
	results, err := core.BatchSeedsContext(r.Context(), n, seeds, opts, s.cfg.Engine, s.workers(req.Workers))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeCtxError(w, err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Batch answers carry no footprint (the union over many seeds would
	// rarely survive retention); they fall back to purge-on-change.
	res := BatchResult{Network: sh.Name(), Results: make([]SeedFlowResult, len(results))}
	for i, sr := range results {
		res.Results[i] = SeedFlowResult{Seed: int(sr.Seed), Ok: sr.Ok}
		if sr.Ok {
			res.Results[i].Flow = sr.Flow
			res.Results[i].Class = sr.Class.String()
			res.Solved++
			res.TotalFlow += sr.Flow
		}
	}
	s.respond(w, r, key, nil, res)
}

// handlePatterns answers GET /patterns: one catalogue pattern search, PB
// (default; tables built lazily per network) or GB.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sh, err := s.network(q.Get("net"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	name := q.Get("pattern")
	p := pattern.ByName(name)
	if p == nil {
		writeError(w, http.StatusBadRequest, "unknown pattern %q (want P1..P6 or RP1..RP3)", name)
		return
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = "pb"
	}
	if mode != "pb" && mode != "gb" {
		writeError(w, http.StatusBadRequest, "unknown mode %q (want pb or gb)", mode)
		return
	}
	maxInst, err1 := intParam(q, "max", 0)
	minPaths, err2 := intParam(q, "minpaths", 0)
	workers, err3 := intParam(q, "workers", 0)
	if err := errors.Join(err1, err2, err3); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, gen, release := sh.Acquire()
	defer release()
	key := cacheKey("patterns", sh.Name(), gen, fmt.Sprintf("%s|%s|%d|%d", p.Name, mode, maxInst, minPaths))
	if s.serveCached(w, "/patterns", key) {
		return
	}
	// Polled before the (possibly expensive) lazy table build, and threaded
	// into the search itself via Options.Ctx, so a deadline cuts a long
	// enumeration short instead of letting it run to completion unobserved.
	if err := r.Context().Err(); err != nil {
		writeCtxError(w, err)
		return
	}
	opts := pattern.Options{
		MaxInstances: int64(maxInst),
		Engine:       s.cfg.Engine,
		MinPaths:     minPaths,
		Workers:      s.workers(workers),
		Ctx:          r.Context(),
	}
	var sum pattern.Summary
	if mode == "pb" {
		sum, err = pattern.SearchPB(n, s.tablesFor(sh).get(n, gen), p, opts)
	} else {
		sum, err = pattern.SearchGB(n, p, opts)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeCtxError(w, err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Pattern answers depend on anchors network-wide; no useful footprint.
	s.respond(w, r, key, nil, PatternResult{
		Network:   sh.Name(),
		Pattern:   sum.Pattern,
		Mode:      mode,
		Instances: sum.Instances,
		TotalFlow: sum.TotalFlow,
		AvgFlow:   sum.AvgFlow(),
		Truncated: sum.Truncated,
	})
}

// handleNetworks answers GET /networks.
func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.networkInfos())
}

// handleStats answers GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	res := StatsResult{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Networks:      s.networkInfos(),
		Endpoints:     make(map[string]EndpointStats, len(routes)),
		Cache:         s.cache.Stats(),
		Store: StoreStats{
			Durable:    st.Durable,
			WALAppends: st.WALAppends,
			WALFsyncs:  st.WALFsyncs,
			Snapshots:  st.Snapshots,
			Recoveries: st.Recoveries,
		},
		Derived: DerivedStats{
			TableUpdates:  s.derived.tableUpdates.Load(),
			TableRebuilds: s.derived.tableRebuilds.Load(),
			CacheRetained: s.derived.cacheRetained.Load(),
			CachePurged:   s.derived.cachePurged.Load(),
		},
	}
	res.Panics = s.panics.Load()
	for _, route := range routes {
		res.Endpoints[route] = s.metrics[route].snapshot()
	}
	writeJSON(w, http.StatusOK, res)
}

// handleHealthz answers GET /healthz: liveness plus the per-network
// durability state, so operators can watch checkpoint lag (WAL bytes that
// a crash right now would have to replay, and when the last snapshot
// landed). A network whose writes cannot currently be made durable —
// poisoned WAL awaiting repair, failing background checkpoints — is
// reported "degraded" with its reasons rather than flipping the whole
// probe to unhealthy: reads keep serving and the repair runs in-process,
// so a restart would only lose the in-memory batches the repair is about
// to persist.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	res := HealthzResult{Ok: true, Status: "ok", Networks: map[string]DurabilityInfo{}}
	for _, sh := range s.store.Shards() {
		d := sh.Durability()
		info := DurabilityInfo{
			Status:            "ok",
			Durable:           d.Durable,
			WALRecordsPending: d.WALRecordsPending,
			WALBytesPending:   d.WALBytesPending,
			BaseGeneration:    d.BaseGeneration,
			CheckpointError:   d.CheckpointError,
			WALError:          d.WALError,
			Mmap:              d.Mmap,
		}
		if d.WALError != "" {
			info.Reasons = append(info.Reasons, "WAL write failure; network is read-only until the repair snapshot lands: "+d.WALError)
		}
		if d.CheckpointError != "" {
			info.Reasons = append(info.Reasons, "background checkpoint failing: "+d.CheckpointError)
		}
		if len(info.Reasons) > 0 {
			info.Status = "degraded"
			res.Status = "degraded"
		}
		if !d.LastSnapshot.IsZero() {
			info.LastSnapshotUnixMs = d.LastSnapshot.UnixMilli()
		}
		res.Networks[sh.Name()] = info
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) networkInfos() map[string]NetworkInfo {
	shs := s.store.Shards()
	infos := make(map[string]NetworkInfo, len(shs))
	for _, sh := range shs {
		tc := s.tablesFor(sh)
		// One View: Pending only moves under the write lock, so the row is
		// a consistent (network, generation, pending) triple.
		sh.View(func(n *tin.Network, gen uint64) {
			st := n.Stats()
			// An empty network reports MaxTime -Inf, which JSON cannot
			// carry; clamp to 0 (any timestamp is in order then anyway).
			mt := n.MaxTime()
			if math.IsInf(mt, -1) {
				mt = 0
			}
			infos[sh.Name()] = NetworkInfo{
				Vertices:            st.Vertices,
				Edges:               st.Edges,
				Interactions:        st.Interactions,
				AvgQty:              st.AvgQty,
				MaxTime:             mt,
				TablesReady:         tc.ready(gen),
				Generation:          gen,
				PendingInteractions: sh.Pending(),
			}
		})
	}
	return infos
}

// ---- ingestion --------------------------------------------------------

// handleCreateNetwork answers POST /networks: register a new, empty,
// ingest-ready network. Gated by Config.AllowIngest.
func (s *Server) handleCreateNetwork(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowIngest {
		writeError(w, http.StatusForbidden, "ingestion disabled (start flownetd with -allow-ingest)")
		return
	}
	var req CreateNetworkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if req.Vertices < 0 || req.Vertices > maxCreateVertices {
		writeError(w, http.StatusBadRequest, "vertices must be in [0,%d], got %d", maxCreateVertices, req.Vertices)
		return
	}
	sh, err := s.store.Create(req.Name, req.Vertices)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, store.ErrDuplicate) {
			status = http.StatusConflict
		} else if errors.Is(err, store.ErrDurability) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CreateNetworkResult{
		Name:       req.Name,
		Vertices:   req.Vertices,
		Generation: sh.Generation(),
	})
}

// handleIngest answers POST /ingest: append a time-ordered interaction
// batch to a loaded network (and/or merge its pending out-of-order buffer
// when Reindex is set). Gated by Config.AllowIngest. The store both makes
// the batch durable (WAL, on a durable store) and drives the derived
// state: its delta-bearing change notification fires for every append
// that changed what queries can observe, feeding the PB table cache's
// pending-edge union and the retention sweep that re-keys cached answers
// the delta provably missed (dropping only the rest) — and only that
// network's. The bumped generation would make stale entries unreachable
// anyway; the sweep either frees their LRU slots or keeps them serving.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowIngest {
		writeError(w, http.StatusForbidden, "ingestion disabled (start flownetd with -allow-ingest)")
		return
	}
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(req.Interactions) == 0 && !req.Reindex {
		writeError(w, http.StatusBadRequest, "no interactions given (pass interactions, or reindex to merge the pending buffer)")
		return
	}
	sh, err := s.network(req.Network)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	items := make([]store.Item, len(req.Interactions))
	for i, ia := range req.Interactions {
		if ia.From < 0 || ia.From > math.MaxInt32 || ia.To < 0 || ia.To > math.MaxInt32 {
			writeError(w, http.StatusBadRequest, "interaction %d: vertex ids must be in [0,%d]", i, math.MaxInt32)
			return
		}
		items[i] = store.Item{From: tin.VertexID(ia.From), To: tin.VertexID(ia.To), Time: ia.Time, Qty: ia.Qty}
	}
	policy := store.PolicyReject
	if req.AllowOutOfOrder {
		policy = store.PolicyDefer
	}
	ares, err := sh.Append(items, store.Options{OnOutOfOrder: policy, Grow: req.Grow})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, store.ErrReadOnly) {
			// The shard is poisoned from an earlier WAL failure: nothing of
			// this batch was applied, a repair snapshot is queued, and the
			// write is safe to retry once it lands — a retryable 503, unlike
			// the fresh durability failure below.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", retryAfterSeconds)
		} else if errors.Is(err, store.ErrDurability) {
			// The batch is applied in memory but not on disk: the client
			// must not treat it as acknowledged — and must not blindly
			// retry either (a retry would double-apply), hence 500, not 503.
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	res := IngestResult{
		Network:    sh.Name(),
		Appended:   ares.Appended,
		Deferred:   ares.Deferred,
		Skipped:    ares.Skipped,
		Generation: ares.Generation,
	}
	if req.Reindex {
		rres, err := sh.Reindex()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, store.ErrReadOnly) {
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", retryAfterSeconds)
			}
			writeError(w, status, "reindex: %v", err)
			return
		}
		res.Appended += rres.Appended
		res.Reindexed = true
		res.Generation = rres.Generation
	}
	res.Pending = sh.Pending()
	writeJSON(w, http.StatusOK, res)
}
