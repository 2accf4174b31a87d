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
// Loaded networks are immutable and every query entry point
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
// (store.SubscribeDelta): a generation bump stamps the vertices it touched,
// a lookup serves a memoized response only if the stamps prove its recorded
// read footprint missed every ingested edge since (and recomputes it
// otherwise), and the lazily built pattern tables are patched forward with
// pattern.Tables.Update over the vertices stamped since they were built,
// rebuilt from scratch only after a reindex. See derived.go for the
// machinery and /stats "derived" for the update/rebuild and
// retained/purged counters.
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
	"sync/atomic"
	"time"

	"flownet/internal/cache"
	"flownet/internal/core"
	"flownet/internal/par"
	"flownet/internal/pattern"
	"flownet/internal/store"
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

// Config configures a Server. The exact engine is not among its fields:
// every flow is core.Solve's answer, and /patterns asks pattern.Options for
// the same time-expanded reduction.
type Config struct {
	// Workers bounds every worker pool the server uses (batch flow and
	// per-instance pattern flows): 0 selects GOMAXPROCS, 1 or negative
	// runs sequentially. Per-request workers are clamped to this bound.
	Workers int
	// CacheSize is the result cache capacity in entries; 0 or negative
	// disables caching.
	CacheSize int
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
// store. Create one with New, add networks with AddNetwork (or
// hand New a pre-populated store), then serve Handler (or call Serve).
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

	// derived holds the update/rebuild and retained/purged counters (see
	// derived.go).
	derived derivedStats

	// nets holds, per network name, the derived record: what each
	// generation bump touched, which cached responses are judged fresh by,
	// and the lazily built PB path tables (see derived.go). This is
	// rebuildable state — the store owns the networks themselves. The map is
	// replaced, never modified, so lookups read it without a lock.
	nets atomic.Pointer[map[string]*netDerived]
}

// routes lists every instrumented endpoint, in /stats display order.
var routes = []string{"/flow", "/flow/batch", "/patterns", "/ingest", "/networks", "/stats", "/healthz", "/metrics"}

// New creates a server over cfg.Store (or a fresh in-memory store when
// nil). Every change the store accepts — from this server's /ingest or
// from any other store client — drives that network's derived state: the
// touched vertices are stamped, which the response cache judges freshness
// by and the PB tables are patched forward from (see derived.go). The
// subscription
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
	}
	s.nets.Store(&map[string]*netDerived{})
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
	s.mux.Handle("POST /networks", s.instrument("/networks", s.ingestOnly(s.handleCreateNetwork)))
	s.mux.Handle("POST /ingest", s.instrument("/ingest", s.ingestOnly(s.handleIngest)))
	s.mux.Handle("GET /stats", s.instrument("/stats", s.handleStats))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// AddNetwork registers a network under the given name — a thin
// wrapper over the store's Add (which, on a durable store, also writes the
// network's initial snapshot). When exactly one network is loaded,
// requests may omit the network parameter. The caller must not use n
// directly afterwards: the store wraps it for live updates, and direct
// access would race with ingestion.
func (s *Server) AddNetwork(name string, n *tin.Network) error {
	if n == nil {
		return fmt.Errorf("server: network %q must be non-nil", name)
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
		nd := s.derivedFor(sh.Name())
		sh.View(func(n *tin.Network, gen uint64) {
			nd.tablesAt(n, gen, &s.derived)
		})
	}
}

// Handler returns the service's HTTP handler. It is safe for concurrent
// use; register networks with AddNetwork before serving.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves Handler on ln until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 10 seconds. It returns
// nil after a clean shutdown. The caller binds the listener, so it can
// bind port 0 and report the actual address before serving.
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

// shard resolves the "net" query parameter (or a request body's Network):
// empty selects the sole loaded network, anything else must match a name.
// It answers the 404 itself and returns nil then.
func (s *Server) shard(w http.ResponseWriter, name string) *store.Shard {
	sh, err := s.store.Resolve(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil
	}
	return sh
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

// answer is a finished response: serveQuery computes one under the network
// pin and writes it after letting go.
type answer struct {
	status int
	body   []byte
	cache  string // X-Flownet-Cache; empty = no header
}

func (a answer) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	if a.cache != "" {
		w.Header().Set("X-Flownet-Cache", a.cache)
	}
	w.WriteHeader(a.status)
	w.Write(a.body)
}

func errorAnswer(status int, format string, args ...any) answer {
	body, _ := json.Marshal(errorBody{Error: fmt.Sprintf(format, args...)}) // a string field always marshals
	return answer{status: status, body: append(body, '\n')}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	errorAnswer(status, format, args...).write(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	answer{status: status, body: append(body, '\n')}.write(w)
}

// decodeBody reads a POST body into req — size-capped, unknown fields
// rejected — answering the 400 itself and reporting false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// runFunc computes a query on the network version its prepareFunc was
// handed: the value to marshal and the answer's read footprint (ascending
// vertex ids; nil = unknown), recorded with the cache entry so it keeps
// serving across ingests that provably missed it (see derived.go). It polls
// ctx between expensive stages and returns its error.
type runFunc func(ctx context.Context) (result any, foot []tin.VertexID, err error)

// prepareFunc validates a request against the pinned network (an error is
// a 400) and returns the normalised <query> part of its cache key with the
// computation to run on a miss.
type prepareFunc func(n *tin.Network, gen uint64) (key string, run runFunc, err error)

// serveQuery is the one request path of the cached routes (/flow,
// /flow/batch, /patterns), which differ only in their prepareFunc: pin the
// network, build the key, replay a memoized answer or compute and memoize
// one, or map the failure to its status.
//
// The pin (on the shard's current version) spans validation to marshalled
// body: the version that resolves the parameters is the one that answers,
// and gen tags the memoized answer so that no request pinned across an
// ingest that touched what it read is served it, in either direction. It
// holds nobody up — ingest publishes the next version beside it — and ends
// before the first byte is written: a slow client must not keep a
// superseded version (and, under -mmap, its mapping) alive.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, route, kind string, sh *store.Shard, prepare prepareFunc) {
	s.answerQuery(r.Context(), route, kind, sh, prepare).write(w)
}

func (s *Server) answerQuery(ctx context.Context, route, kind string, sh *store.Shard, prepare prepareFunc) answer {
	n, gen, release := sh.Acquire()
	defer release()
	query, run, err := prepare(n, gen)
	if err != nil {
		return errorAnswer(http.StatusBadRequest, "%v", err)
	}
	// Kinds and network names never contain '|', so keys of different
	// routes or networks cannot collide whatever the query part holds.
	key := kind + "|" + sh.Name() + "|" + query
	if hit, ok := s.serveCached(route, key, &s.derivedFor(sh.Name()).stamps, gen); ok {
		return hit
	}
	// An expired deadline fails fast instead of burning a worker on an
	// answer nobody is waiting for.
	err = ctx.Err()
	var result any
	var foot []tin.VertexID
	if err == nil {
		result, foot, err = run(ctx)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded): // the server's own QueryTimeout
		return errorAnswer(http.StatusGatewayTimeout, "query timed out (server -query-timeout); narrow the query or raise the limit")
	case errors.Is(err, context.Canceled):
		return errorAnswer(statusClientClosedRequest, "client closed request")
	case err != nil:
		return errorAnswer(http.StatusInternalServerError, "%v", err)
	}
	body, err := json.Marshal(result)
	if err != nil {
		return errorAnswer(http.StatusInternalServerError, "encoding response: %v", err)
	}
	body = append(body, '\n')
	// Bodies above maxCachedBytes are served but not cached: the LRU is
	// bounded in entry count, so huge batch responses would make its byte
	// footprint effectively unbounded. Nor is a response that finished right
	// at the deadline: it must not plant a result the timed-out path would
	// have refused to compute.
	if len(body) <= maxCachedBytes && ctx.Err() == nil {
		s.cache.Put(key, cachedResponse{body: body, gen: gen, foot: foot})
	}
	return answer{status: http.StatusOK, body: body, cache: "miss"}
}

// serveCached replays the response memoized under key if it still holds for
// a reader pinned at gen (stamps.fresh). One found and refused counts as
// purged (the caller's recompute overwrites it), a hit computed at an
// earlier generation as retained.
func (s *Server) serveCached(route, key string, st *stamps, gen uint64) (answer, bool) {
	refused := false
	v, ok := s.cache.Get(key, func(e cachedResponse) bool {
		refused = !st.fresh(e, gen)
		return !refused
	})
	switch {
	case refused:
		s.derived.cachePurged.Add(1)
	case ok && v.gen < gen:
		s.derived.cacheRetained.Add(1)
	}
	if !ok {
		return answer{}, false
	}
	s.metrics[route].cacheHits.Add(1)
	return answer{status: http.StatusOK, body: v.body, cache: "hit"}, true
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

// floatParam parses a float query parameter; ok is false when absent. NaN
// parses but bounds no window: it is refused like any other non-number.
func floatParam(q url.Values, name string) (float64, bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) {
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

// fmtFloat renders a float for cache keys (shortest round-trip form). The
// sum turns -0 into 0: they bound the same window, so they share an entry.
func fmtFloat(f float64) string { return strconv.FormatFloat(f+0, 'g', -1, 64) }

// parseFlowQuery turns GET /flow parameters into the normalised extraction
// query: seed addressing (seed, with the §6.2 knobs hops / maxinteractions)
// or pair addressing (source, sink), either with an optional inclusive time
// window (from, to; a missing side is unbounded). The footprint is always
// requested — it is the staleness certificate under which the answer keeps
// serving across ingests.
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

// classMethod renders a core.Solve result in the wire's terms: the class
// under "presim", or none under "teg" for a cyclic instance.
func classMethod(r core.Result) (class, method string) {
	if r.Cyclic {
		return "", "teg"
	}
	return r.Class.String(), "presim"
}

// handleFlow answers GET /flow, seed and pair addressing alike: a miss
// extracts the subgraph (the time window is applied during extraction —
// out-of-window interactions are never materialized) and solves it.
func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	sh := s.shard(w, p.Get("net"))
	if sh == nil {
		return
	}
	s.serveQuery(w, r, "/flow", "flow", sh, func(n *tin.Network, _ uint64) (string, runFunc, error) {
		q, err := s.parseFlowQuery(p, n)
		if err != nil {
			return "", nil, err
		}
		// The instance comes back in its smallest form — a class-A seed as its
		// runs, a cyclic pair as its residue — which solves to its bits; the
		// reported sizes stay the instance's.
		q.Residue = true
		return flowQueryKey(q), func(ctx context.Context) (any, []tin.VertexID, error) {
			res := FlowResult{Network: sh.Name(), Query: "pair", Source: int(q.Source), Sink: int(q.Sink)}
			if q.Source == q.Sink {
				res = FlowResult{Network: sh.Name(), Query: "seed", Seed: int(q.Source)}
			}
			x := n.Extract(q)
			if !x.Ok {
				return res, x.Footprint, nil
			}
			if err := ctx.Err(); err != nil { // between the two expensive stages
				return nil, nil, err
			}
			sol := core.SolveExtraction(x)
			res.Ok = true
			res.Vertices, res.Edges, res.Interactions = x.Vertices, x.Edges, x.Interactions
			res.Flow = sol.Flow
			res.Class, res.Method = classMethod(sol)
			res.UsedEngine = sol.UsedEngine
			return res, x.Footprint, nil
		}, nil
	})
}

// handleBatch answers POST /flow/batch: core.BatchSeedsContext — each seed
// answered as /flow?seed= answers it — over the JSON-listed seeds (or every
// vertex with "all": true).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sh := s.shard(w, req.Network)
	if sh == nil {
		return
	}
	s.serveQuery(w, r, "/flow/batch", "batch", sh, func(n *tin.Network, _ uint64) (string, runFunc, error) {
		opts, err := extractParams(req.Hops, req.MaxInteractions)
		if err != nil {
			return "", nil, err
		}
		var seeds []tin.VertexID
		var seedsKey string
		switch {
		case req.All && len(req.Seeds) > 0:
			return "", nil, errors.New("give either seeds or all, not both")
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
					return "", nil, fmt.Errorf("seed %d is not a vertex id in [0,%d)", v, n.NumVertices())
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
			return "", nil, errors.New("no seeds given (pass seeds or all)")
		}
		// Workers are excluded from the key: results are identical for every
		// worker count (see the library's Concurrency guarantee).
		key := fmt.Sprintf("%d|%d|%s", opts.MaxHops, opts.MaxInteractions, seedsKey)
		return key, func(ctx context.Context) (any, []tin.VertexID, error) {
			// ctx aborts the remaining seeds on a client disconnect or the
			// QueryTimeout; a partial batch is an error, not an answer.
			results, err := core.BatchSeedsContext(ctx, n, seeds, opts, s.workers(req.Workers))
			if err != nil {
				return nil, nil, err
			}
			res := BatchResult{Network: sh.Name(), Results: make([]SeedFlowResult, len(results))}
			for i, sr := range results {
				res.Results[i] = SeedFlowResult{Seed: int(sr.Seed), Ok: sr.Ok}
				if sr.Ok {
					res.Results[i].Flow = sr.Flow
					res.Results[i].Class, _ = classMethod(sr.Result)
					res.Solved++
					res.TotalFlow += sr.Flow
				}
			}
			// No footprint (the union over many seeds would rarely survive an
			// ingest): batch answers fall back to stale-on-change.
			return res, nil, nil
		}, nil
	})
}

// handlePatterns answers GET /patterns: one catalogue pattern search, PB
// (default; tables built lazily per network) or GB.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sh := s.shard(w, q.Get("net"))
	if sh == nil {
		return
	}
	s.serveQuery(w, r, "/patterns", "patterns", sh, func(n *tin.Network, gen uint64) (string, runFunc, error) {
		name := q.Get("pattern")
		p := pattern.ByName(name)
		if p == nil {
			return "", nil, fmt.Errorf("unknown pattern %q (want P1..P6 or RP1..RP3)", name)
		}
		mode := q.Get("mode")
		if mode == "" {
			mode = "pb"
		}
		if mode != "pb" && mode != "gb" {
			return "", nil, fmt.Errorf("unknown mode %q (want pb or gb)", mode)
		}
		maxInst, err1 := intParam(q, "max", 0)
		minPaths, err2 := intParam(q, "minpaths", 0)
		workers, err3 := intParam(q, "workers", 0)
		if err := errors.Join(err1, err2, err3); err != nil {
			return "", nil, err
		}
		key := fmt.Sprintf("%s|%s|%d|%d", p.Name, mode, maxInst, minPaths)
		return key, func(ctx context.Context) (any, []tin.VertexID, error) {
			// Ctx lets a deadline cut a long enumeration short.
			opts := pattern.Options{
				MaxInstances: int64(maxInst),
				Engine:       core.EngineTEG,
				MinPaths:     minPaths,
				Workers:      s.workers(workers),
				Ctx:          ctx,
			}
			var sum pattern.Summary
			var err error
			if mode == "pb" {
				sum, err = pattern.SearchPB(n, s.derivedFor(sh.Name()).tablesAt(n, gen, &s.derived), p, opts)
			} else {
				sum, err = pattern.SearchGB(n, p, opts)
			}
			if err != nil {
				return nil, nil, err
			}
			// Anchors are network-wide: no useful footprint.
			return PatternResult{
				Network:   sh.Name(),
				Pattern:   sum.Pattern,
				Mode:      mode,
				Instances: sum.Instances,
				TotalFlow: sum.TotalFlow,
				AvgFlow:   sum.AvgFlow(),
				Truncated: sum.Truncated,
			}, nil, nil
		}, nil
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
		nd := s.derivedFor(sh.Name())
		// One View, so the network's numbers and its generation belong to
		// one version (Pending is the current version's, which an ingest
		// in flight may already have moved on).
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
				TablesReady:         nd.ready(gen),
				Generation:          gen,
				PendingInteractions: sh.Pending(),
			}
		})
	}
	return infos
}

// ---- ingestion --------------------------------------------------------

// ingestOnly gates the write path (POST /networks, POST /ingest) behind
// Config.AllowIngest.
func (s *Server) ingestOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.AllowIngest {
			writeError(w, http.StatusForbidden, "ingestion disabled (start flownetd with -allow-ingest)")
			return
		}
		h(w, r)
	}
}

// writeStoreError answers a failed store write; fallback is the status of
// an error the store does not name.
func writeStoreError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	switch {
	case errors.Is(err, store.ErrDuplicate):
		status = http.StatusConflict
	case errors.Is(err, store.ErrReadOnly):
		// The shard is poisoned from an earlier WAL failure: nothing of
		// this write was applied, a repair snapshot is queued, and the
		// write is safe to retry once it lands — a retryable 503, unlike
		// the fresh durability failure below.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, store.ErrDurability):
		// The write is applied in memory but not on disk: the client must
		// not treat it as acknowledged — and must not blindly retry either
		// (a retry would double-apply), hence 500, not 503.
		status = http.StatusInternalServerError
	}
	writeError(w, status, "%v", err)
}

// handleCreateNetwork answers POST /networks: register a new, empty,
// ingest-ready network.
func (s *Server) handleCreateNetwork(w http.ResponseWriter, r *http.Request) {
	var req CreateNetworkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Vertices < 0 || req.Vertices > maxCreateVertices {
		writeError(w, http.StatusBadRequest, "vertices must be in [0,%d], got %d", maxCreateVertices, req.Vertices)
		return
	}
	sh, err := s.store.Create(req.Name, req.Vertices)
	if err != nil {
		writeStoreError(w, err, http.StatusBadRequest)
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
// when Reindex is set). The store both makes the batch durable (WAL, on a
// durable store) and drives the derived state: its delta-bearing change
// notification fires for every append that changed what queries can
// observe and stamps the touched vertices, by which later lookups tell the
// cached answers the delta provably missed (still served) from the rest
// (recomputed in place), and the next PB query knows which table rows to
// recompute — that network's only. The request does nothing else for the
// derived state: its cost does not depend on what the caches hold.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Interactions) == 0 && !req.Reindex {
		writeError(w, http.StatusBadRequest, "no interactions given (pass interactions, or reindex to merge the pending buffer)")
		return
	}
	sh := s.shard(w, req.Network)
	if sh == nil {
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
		writeStoreError(w, err, http.StatusBadRequest)
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
			writeStoreError(w, fmt.Errorf("reindex: %w", err), http.StatusInternalServerError)
			return
		}
		res.Appended += rres.Appended
		res.Reindexed = true
		res.Generation = rres.Generation
	}
	res.Pending = sh.Pending()
	writeJSON(w, http.StatusOK, res)
}
