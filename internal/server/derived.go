package server

// Derived state: everything the server computes *from* a network and would
// be correct to throw away — memoized responses and PB path tables. Both
// are tagged with the network generation they hold for, so they can never
// serve a stale answer; this file is about keeping as much of them as
// possible *warm* across ingests instead of rebuilding from scratch.
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
//   - stamps notes, per vertex, the last generation that touched it: a
//     lookup serves a cached response across a bump iff no vertex of its
//     recorded read footprint (the vertex set the answer depended on) was
//     touched since, instead of the whole network's cache dying with it.
//
// Both are optimizations only: a dropped table cache rebuilds on the next
// PB query, and a refused response recomputes on the spot. The writer's
// share is O(delta), and nothing runs between an ingest and the next query.

import (
	"maps"
	"slices"
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
	// stamp compares would be slow — so the entry falls back to
	// stale-on-change (nil footprint).
	maxFootprintVertices = 1024
)

// cachedResponse is one memoized response body, the generation it was
// computed at and the read footprint its freshness is judged by (see
// stamps.fresh). foot is ascending; nil means the footprint is unknown
// (batch and pattern answers, or over the cap) and the entry is stale after
// any change to its network.
type cachedResponse struct {
	body []byte
	gen  uint64
	foot []tin.VertexID
}

// derivedStats holds the counters behind /stats "derived" and the
// flownet_table_refreshes_total / flownet_cache_sweep_entries_total metric
// families.
type derivedStats struct {
	tableUpdates  atomic.Uint64
	tableRebuilds atomic.Uint64
	cacheRetained atomic.Uint64
	cachePurged   atomic.Uint64
}

// clampFootprint applies maxFootprintVertices: an over-the-cap footprint is
// recorded as unknown (nil), falling back to stale-on-change.
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

// ---- response-cache freshness -----------------------------------------

// stamps is one network's invalidation record: which generation last
// changed what. The store's change notification writes it, on the writer's
// goroutine and before the bumped version is published, so a reader pinned
// at generation g sees every stamp up to g — the ordering that lets
// tableCache keep an exact log. Lookups only load.
type stamps struct {
	// touched[v] is the last generation whose delta had v as an endpoint of
	// a changed edge; a vertex beyond the table reads as 0. The table grows
	// by replacement: a reader still holding the old one misses only stamps
	// above its own pin.
	touched atomic.Pointer[[]atomic.Uint64]
	floor   atomic.Uint64 // the last Full (reindex) bump
	last    atomic.Uint64 // the last bump of any kind
}

// record stamps one generation bump. A network has one writer at a time
// (the shard's writer lock is held around the notification).
func (st *stamps) record(gen uint64, d store.Delta) {
	if len(d.Vertices) > 0 {
		t := *st.touched.Load()
		// Vertices is ascending: the last one decides whether the table fits.
		if need := int(d.Vertices[len(d.Vertices)-1]) + 1; need > len(t) {
			grown := make([]atomic.Uint64, max(need, 2*len(t)))
			for i := range t {
				grown[i].Store(t[i].Load())
			}
			t = grown
			st.touched.Store(&t)
		}
		for _, v := range d.Vertices {
			t[v].Store(gen)
		}
	}
	if d.Full {
		st.floor.Store(gen)
	}
	st.last.Store(gen)
}

// fresh reports whether e is still the answer for a reader pinned at gen:
// it is not from the reader's future, and nothing it read has changed since
// e.gen — no reindex, and no edge at a vertex of its footprint (the
// staleness-certificate argument is on tin.Extraction.Footprint). Exact for
// a current reader; one pinned in the past may also see stamps above its
// pin and recompute needlessly.
func (st *stamps) fresh(e cachedResponse, gen uint64) bool {
	switch {
	case e.gen > gen:
		return false
	case st.last.Load() <= e.gen:
		return true // the network has not changed at all
	case e.foot == nil || e.gen < st.floor.Load():
		return false
	}
	t := *st.touched.Load()
	for _, v := range e.foot {
		if int(v) >= len(t) {
			break // ascending: the rest was never touched either
		}
		if t[v].Load() > e.gen {
			return false
		}
	}
	return true
}

// stampsFor returns (creating it on first use) the stamps of a network.
// Readers and the change notification both come through here, so no bump
// is stamped nowhere; the map is copy-on-write, so neither takes a lock.
func (s *Server) stampsFor(name string) *stamps {
	for {
		old := s.stamps.Load()
		if st := (*old)[name]; st != nil {
			return st
		}
		st := &stamps{}
		st.touched.Store(new([]atomic.Uint64))
		next := maps.Clone(*old)
		next[name] = st
		if s.stamps.CompareAndSwap(old, &next) {
			return st
		}
	}
}

// onStoreDelta is the store's change notification (fired on the writer's
// goroutine, before the bumped version is published): it logs the delta
// with the table cache and stamps it for the response cache, both in
// O(delta) whatever the cache holds.
func (s *Server) onStoreDelta(name string, gen uint64, d store.Delta) {
	s.tablesMu.Lock()
	tc := s.tables[name]
	s.tablesMu.Unlock()
	if tc != nil {
		tc.recordDelta(gen, d)
	}
	s.stampsFor(name).record(gen, d)
}
