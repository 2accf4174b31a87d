package server

// Derived state: everything the server computes *from* a network and would
// be correct to throw away — memoized responses and PB path tables. Both
// are keyed (or tagged) by the network generation, so they can never serve
// a stale answer; this file is about keeping as much of them as possible
// *warm* across ingests instead of rebuilding from scratch.
//
// The store's delta-bearing change notification (store.SubscribeDelta)
// names the edges an ingest touched and their endpoint vertices. Two
// consumers use it:
//
//   - tableCache logs the changed edges per generation and patches the PB
//     path tables forward with pattern.Tables.Update on the next query,
//     falling back to a full pattern.Precompute when the delta is too
//     large (tableUpdateThreshold), when a reindex re-ranked the
//     edge order (Update's preconditions no longer hold), when the log
//     misses a bump, or when no tables were built yet.
//
//   - the retention sweep re-keys cached responses whose recorded read
//     footprint (the vertex set the answer depended on) is disjoint from
//     the delta's vertices up to the new generation, instead of letting
//     the whole network's cache die with the generation bump.
//
// Both are optimizations only: a dropped table cache rebuilds on the next
// PB query, and a dropped response recomputes on the next hit. Correctness
// never depends on a sweep running, only on generation tags.

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/tin"
)

const (
	// tableUpdateThreshold is the changed-edge count above which the
	// accumulated delta is abandoned and the next PB query rebuilds the
	// tables from scratch. Update cost scales with the affected-anchor
	// neighborhoods, rebuild cost with the whole network; for deltas past a
	// few hundred edges the bookkeeping stops paying for itself on the
	// networks the benchmarks model. (Tests set Server.tableThreshold:
	// negative disables incremental updates entirely.)
	tableUpdateThreshold = 256

	// maxFootprintVertices caps the per-entry footprint recorded with a
	// cached response. A footprint this large means the answer read a big
	// slice of the network — retention would rarely succeed and the
	// intersection scans would be slow — so the entry falls back to
	// purge-on-change (nil footprint).
	maxFootprintVertices = 1024

	// maxSweepVertices caps the vertex union a pending sweep accumulates
	// across coalesced ingests; past it the sweep degrades to a full purge
	// of the network's stale entries.
	maxSweepVertices = 4096
)

// cachedResponse is one memoized response body plus the read footprint the
// retention sweep tests against ingest deltas. foot is ascending; nil means
// the footprint is unknown (batch and pattern answers, or over the cap) and
// the entry is dropped on any change to its network.
type cachedResponse struct {
	body []byte
	foot []tin.VertexID
}

// derivedStats holds the counters behind /stats "derived" and the
// flownet_derived_* metric families.
type derivedStats struct {
	tableUpdates  atomic.Uint64
	tableRebuilds atomic.Uint64
	cacheRetained atomic.Uint64
	cachePurged   atomic.Uint64
}

// clampFootprint applies maxFootprintVertices: an over-the-cap footprint is
// recorded as unknown (nil), falling back to purge-on-change.
func clampFootprint(foot []tin.VertexID) []tin.VertexID {
	if len(foot) > maxFootprintVertices {
		return nil
	}
	return foot
}

// ---- warm PB path tables ----------------------------------------------

// tableDelta is one entry of a tableCache's change log: what the bumps of
// generations (from, gen] did to the network. A single bump has from ==
// gen-1 and lists its changed edges; full marks a range the tables cannot
// be patched across — a reindex re-ranked the canonical order, or the log
// outgrew tableLogLimit and was collapsed.
type tableDelta struct {
	from, gen uint64
	edges     []tin.EdgeID
	full      bool
}

// tableLogLimit caps the edge ids a change log holds (an empty delta
// counts as one). A network that keeps ingesting while nobody asks a PB
// question must not grow the log without bound: past the limit the log
// collapses into one full entry and the next PB query rebuilds.
const tableLogLimit = 16 * tableUpdateThreshold

// tableCache is one network's lazily built, generation-tagged PB path
// tables, kept warm across ingests. Readers are not held up by writers (a
// version is pinned, not locked), so a delta can arrive while a reader
// pinned at an older generation is still building — its first build
// included. The cache therefore logs every delta it is told of, tagged
// with its generation, and a reader pinned at generation g brings the
// tables to g with exactly the entries in (tables' generation, g] —
// pattern.Tables.Update when they are few enough (srv.tableThreshold), a
// rebuild otherwise — leaving later entries for later readers. The tables
// are only ever patched across a range the log covers without a gap: a
// bump the cache was never told of (it is created lazily, by the first
// reader) rebuilds, it is never skipped.
//
// The build runs outside tc.mu under a single-flight guard (building +
// cond), so concurrent first queries run one build — not one each — and
// ready() keeps answering (for /stats and /networks) meanwhile. Only a
// reader that moves the tables forward installs them: one pinned below the
// cached tables has nothing to patch from, builds its own from scratch and
// installs nothing — it is holding a version at least one complete table
// refresh old.
type tableCache struct {
	srv  *Server
	mu   sync.Mutex
	cond *sync.Cond
	// building marks an in-progress build that will move gen forward;
	// readers the cached tables do not serve yet sleep on cond.
	building bool
	tables   pattern.Tables
	// gen is the generation the cached tables are current for; 0 means
	// never built.
	gen uint64
	// log holds the deltas past gen in ascending order, logged holds their
	// size against tableLogLimit.
	log    []tableDelta
	logged int
}

// recordDelta logs one generation bump. Called from the store's change
// notification, before the bumped version is published — so the entry is
// in the log before any reader can be pinned at gen.
func (tc *tableCache) recordDelta(gen uint64, d store.Delta) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if last := len(tc.log) - 1; last >= 0 && tc.log[last].full {
		tc.log[last].gen = gen // already resigned to a rebuild across this range
		return
	}
	tc.logged += max(1, len(d.Edges))
	if d.Full || tc.logged > tableLogLimit {
		from := gen - 1
		if len(tc.log) > 0 {
			from = tc.log[0].from
		}
		tc.log = append(tc.log[:0], tableDelta{from: from, gen: gen, full: true})
		tc.logged = 0
		return
	}
	tc.log = append(tc.log, tableDelta{from: gen - 1, gen: gen, edges: d.Edges})
}

// plan says how to bring the cached tables to generation gen > tc.gen: the
// distinct changed edges of (tc.gen, gen] in ascending order, or rebuild
// when there are no tables yet, updates are disabled, the delta is over
// the threshold, or the log does not lead from tc.gen to gen one patchable
// entry after the other. Callers hold tc.mu.
func (tc *tableCache) plan(gen uint64) (changed []tin.EdgeID, rebuild bool) {
	threshold := tc.srv.tableThreshold
	if tc.gen == 0 || threshold < 0 {
		return nil, true
	}
	at := tc.gen // the generation the entries read so far lead to
	for _, d := range tc.log {
		if at == gen {
			break
		}
		if d.full || d.from != at {
			return nil, true
		}
		changed = append(changed, d.edges...)
		at = d.gen
	}
	if at != gen {
		return nil, true // the log ends short: a bump recorded by nobody
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	return changed, len(changed) > threshold
}

// get returns the PB path tables for generation gen of n (with the C2
// chain table included, so every catalogue pattern has a PB plan). Callers
// must hold a pin on n, and gen must be the generation it was pinned at.
//
// When the cached tables lag, get patches them forward with Update if the
// logged delta qualifies (counted in derived.tableUpdates), else rebuilds
// from scratch (derived.tableRebuilds). Concurrent callers single-flight:
// one builds, those it may serve wait on cond and reuse the result.
func (tc *tableCache) get(n *tin.Network, gen uint64) pattern.Tables {
	tc.mu.Lock()
	for tc.building && tc.gen < gen {
		tc.cond.Wait()
	}
	if tc.gen >= gen {
		t, stale := tc.tables, tc.gen > gen
		tc.mu.Unlock()
		if stale {
			// Pinned below the cached tables: what it builds is its own.
			tc.srv.derived.tableRebuilds.Add(1)
			return pattern.Precompute(n, true)
		}
		return t
	}
	prev := tc.tables
	changed, rebuild := tc.plan(gen)
	tc.building = true
	tc.mu.Unlock()

	// Build outside the mutex: ready() and concurrent getters must not
	// block behind a long Precompute.
	var tables pattern.Tables
	switch {
	case rebuild:
		tables = pattern.Precompute(n, true)
		tc.srv.derived.tableRebuilds.Add(1)
	case len(changed) == 0:
		// Growth-only bumps (new isolated vertices): no edge changed, the
		// tables are already correct — just retag them.
		tables = prev
		tc.srv.derived.tableUpdates.Add(1)
	default:
		tables = prev.Update(n, changed)
		tc.srv.derived.tableUpdates.Add(1)
	}

	tc.mu.Lock()
	tc.tables, tc.gen = tables, gen
	tc.log = slices.DeleteFunc(tc.log, func(d tableDelta) bool { return d.gen <= gen })
	tc.logged = 0
	for _, d := range tc.log {
		tc.logged += max(1, len(d.edges))
	}
	tc.building = false
	tc.cond.Broadcast()
	tc.mu.Unlock()
	return tables
}

// ready reports whether the cached tables match generation gen. It never
// blocks behind an in-progress build.
func (tc *tableCache) ready(gen uint64) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.gen == gen
}

// tablesFor returns (lazily creating) the table cache of a shard. Caches
// are keyed by network name — the same key the store's change notification
// delivers — so deltas reach the right cache.
func (s *Server) tablesFor(sh *store.Shard) *tableCache {
	s.tablesMu.Lock()
	defer s.tablesMu.Unlock()
	tc, ok := s.tables[sh.Name()]
	if !ok {
		tc = &tableCache{srv: s}
		tc.cond = sync.NewCond(&tc.mu)
		s.tables[sh.Name()] = tc
	}
	return tc
}

// ---- delta-aware response-cache retention -----------------------------

// sweepDelta accumulates the coalesced invalidation work of one network:
// every generation bump since the last sweep, folded together. base is the
// generation the oldest coalesced bump started from — entries built at
// generations below it have unknown intermediate deltas and are dropped;
// entries in [base, toGen) are retained iff their footprint misses verts.
type sweepDelta struct {
	base  uint64
	toGen uint64
	full  bool
	verts map[tin.VertexID]struct{}
}

// onStoreDelta is the store's change notification (fired on the writer's
// goroutine, before the bumped version is published): it logs the delta
// with the table cache, folds it into the network's sweep, and kicks the
// single sweeper goroutine. The sweep itself must not run here — it scans
// the whole LRU.
func (s *Server) onStoreDelta(name string, gen uint64, d store.Delta) {
	s.tablesMu.Lock()
	tc := s.tables[name]
	s.tablesMu.Unlock()
	if tc != nil {
		tc.recordDelta(gen, d)
	}

	s.dirtyMu.Lock()
	sd := s.dirty[name]
	if sd == nil {
		sd = &sweepDelta{base: gen - 1}
		s.dirty[name] = sd
	}
	sd.toGen = gen
	if d.Full {
		sd.full = true
		sd.verts = nil
	}
	if !sd.full {
		if sd.verts == nil {
			sd.verts = make(map[tin.VertexID]struct{}, len(d.Vertices))
		}
		for _, v := range d.Vertices {
			sd.verts[v] = struct{}{}
		}
		if len(sd.verts) > maxSweepVertices {
			sd.full = true
			sd.verts = nil
		}
	}
	spawn := !s.purging
	s.purging = true
	s.dirtyMu.Unlock()
	if spawn {
		go s.sweepDirty()
	}
}

// sweepDirty drains the dirty map, one cache sweep per distinct network,
// and exits when the map is empty. Eagerness is an optimization only:
// cache keys carry the generation, so the bump already made every stale
// entry unreachable — the sweep either frees the LRU slot or, better,
// re-keys the entry to the new generation so it stays reachable.
func (s *Server) sweepDirty() {
	for {
		s.dirtyMu.Lock()
		var name string
		var sd *sweepDelta
		for n, d := range s.dirty {
			name, sd = n, d
			break
		}
		if sd == nil {
			s.purging = false
			s.dirtyMu.Unlock()
			return
		}
		delete(s.dirty, name)
		s.dirtyMu.Unlock()
		s.sweepNetwork(name, sd)
	}
}

// cacheKey builds a response-cache key, "<kind>|<network>|g<gen>|<query>".
// The generation tag is what makes a cached answer unreachable once its
// network changes; kind keeps the routes' query encodings apart. Kinds and
// network names never contain '|' (the query may), so splitCacheKey is an
// exact inverse.
func cacheKey(kind, network string, gen uint64, query string) string {
	return kind + "|" + network + "|g" + strconv.FormatUint(gen, 10) + "|" + query
}

// splitCacheKey takes a cacheKey apart; ok is false for any other string.
func splitCacheKey(key string) (kind, network string, gen uint64, query string, ok bool) {
	kind, rest, ok1 := strings.Cut(key, "|")
	network, rest, ok2 := strings.Cut(rest, "|")
	genStr, query, ok3 := strings.Cut(rest, "|")
	if !ok1 || !ok2 || !ok3 || !strings.HasPrefix(genStr, "g") {
		return "", "", 0, "", false
	}
	gen, err := strconv.ParseUint(genStr[1:], 10, 64)
	if err != nil {
		return "", "", 0, "", false
	}
	return kind, network, gen, query, true
}

// sweepNetwork runs one retention scan over the response cache. For each
// of name's entries:
//
//   - generation >= sd.toGen: current (or newer — raced with a later
//     ingest whose own sweep is queued); left untouched.
//   - sweep degraded to full, generation < sd.base (unknown intermediate
//     deltas), nil footprint, or footprint intersecting the delta's
//     vertices: dropped.
//   - otherwise the answer provably survives every coalesced bump
//     (footprint disjoint from all changed-edge endpoints — see the
//     staleness-certificate argument on tin.Extraction.Footprint) and the
//     entry is re-keyed to sd.toGen, staying reachable at the new
//     generation.
func (s *Server) sweepNetwork(name string, sd *sweepDelta) {
	rekeyed, removed := s.cache.Rekey(func(key string, v cachedResponse) (string, bool) {
		kind, network, gen, query, ok := splitCacheKey(key)
		if !ok || network != name || gen >= sd.toGen {
			return key, true // another network's entry, or already current
		}
		if sd.full || gen < sd.base || v.foot == nil || footprintHits(v.foot, sd.verts) {
			return key, false
		}
		return cacheKey(kind, name, sd.toGen, query), true
	})
	s.derived.cacheRetained.Add(uint64(rekeyed))
	s.derived.cachePurged.Add(uint64(removed))
}

// footprintHits reports whether any footprint vertex was an endpoint of a
// changed edge.
func footprintHits(foot []tin.VertexID, verts map[tin.VertexID]struct{}) bool {
	for _, v := range foot {
		if _, ok := verts[v]; ok {
			return true
		}
	}
	return false
}
