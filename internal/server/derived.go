package server

// Derived state: everything the server computes *from* a network and would
// be correct to throw away — memoized responses and PB path tables. Both
// are tagged with the network generation they hold for, so they can never
// serve a stale answer; this file is about keeping as much of them as
// possible *warm* across ingests instead of recomputing it from scratch.
//
// The store's delta-bearing change notification (store.SubscribeDelta)
// names the vertices an ingest touched. The notification only stamps them
// into the network's derived record (netDerived): per vertex, the last
// generation that touched it, and the last reindex. Everything else is read
// off those stamps by whoever needs it:
//
//   - a lookup serves a cached response across a bump iff no vertex of its
//     recorded read footprint (the vertex set the answer depended on) was
//     touched since, instead of the whole network's cache dying with it;
//
//   - a PB query whose pin is ahead of the cached tables patches them
//     forward with pattern.Tables.Update over the vertices stamped since the
//     tables' generation, and rebuilds with pattern.Precompute only when
//     there are no tables yet, when a reindex re-ranked the canonical order
//     since (Update's preconditions no longer hold), or when it is pinned
//     below the cached tables.
//
// Both are optimizations only: a refused response recomputes on the spot,
// and rebuilt tables equal patched ones. The writer's share is O(delta), and
// nothing runs between an ingest and the next query.

import (
	"maps"
	"sync"
	"sync/atomic"

	"flownet/internal/pattern"
	"flownet/internal/store"
	"flownet/internal/tin"
)

// cachedResponse is one memoized response body, the generation it was
// computed at and the read footprint its freshness is judged by (see
// stamps.fresh). foot is ascending; nil means the footprint is unknown
// (batch and pattern answers, or over tin.MaxFootprintVertices) and the
// entry is stale after any change to its network.
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

// ---- stamps -----------------------------------------------------------

// stamps records which generation last changed what. The store's change
// notification writes them, on the writer's goroutine and before the bumped
// version is published, so a reader pinned at generation g sees every stamp
// up to g. Readers only load.
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

// touchedSince lists, ascending, the vertices below numV stamped above gen.
// It may include vertices touched after the caller's pin, which Update
// recomputes from the pinned network like any other.
func (st *stamps) touchedSince(gen uint64, numV int) []tin.VertexID {
	t := *st.touched.Load()
	var out []tin.VertexID
	for v := range min(len(t), numV) {
		if t[v].Load() > gen {
			out = append(out, tin.VertexID(v))
		}
	}
	return out
}

// ---- the per-network record --------------------------------------------

// netDerived is one network's derived record: its stamps, and its PB path
// tables with the generation they are current for.
type netDerived struct {
	stamps
	// tables is nil until the first build. It is replaced, never modified,
	// so a reader at the cached generation needs nothing but the load.
	tables atomic.Pointer[genTables]
	// mu is held by the one reader that moves the tables forward (advance);
	// readers the cached tables do not serve yet queue behind it and reuse
	// what it installs, so concurrent first queries run one build.
	mu sync.Mutex
}

// genTables is a set of PB path tables (with the C2 chain table, so every
// catalogue pattern has a PB plan) and the generation they are current for.
type genTables struct {
	gen    uint64
	tables pattern.Tables
}

// ready reports whether the cached tables are current for generation gen.
func (nd *netDerived) ready(gen uint64) bool {
	c := nd.tables.Load()
	return c != nil && c.gen == gen
}

// tablesAt returns the PB path tables for generation gen of n. Callers
// must hold a pin on n, and gen must be the generation it was pinned at.
//
// Cached tables at an older generation t are patched to gen with Update
// over the vertices stamped above t (counted in ds.tableUpdates). A rebuild
// (ds.tableRebuilds) runs only when there are no tables yet or a reindex
// came after t. A reader pinned below the cached tables builds its own
// outside the mutex and installs nothing: it is holding a version at least
// one complete table refresh old.
func (nd *netDerived) tablesAt(n *tin.Network, gen uint64, ds *derivedStats) pattern.Tables {
	c := nd.tables.Load()
	if c == nil || c.gen < gen {
		c = nd.advance(n, gen, ds)
	}
	if c.gen == gen {
		return c.tables
	}
	ds.tableRebuilds.Add(1)
	return pattern.Precompute(n, true)
}

// advance brings the cached tables to generation gen of n, unless another
// reader moved them there or past it while this one queued, and returns
// what is cached then.
func (nd *netDerived) advance(n *tin.Network, gen uint64, ds *derivedStats) *genTables {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	c := nd.tables.Load()
	if c != nil && c.gen >= gen {
		return c
	}
	next := &genTables{gen: gen}
	if c == nil || nd.floor.Load() > c.gen {
		next.tables = pattern.Precompute(n, true)
		ds.tableRebuilds.Add(1)
	} else {
		next.tables = c.tables.Update(n, nd.touchedSince(c.gen, n.NumVertices()))
		ds.tableUpdates.Add(1)
	}
	nd.tables.Store(next)
	return next
}

// derivedFor returns (creating it on first use) the derived record of a
// network. Readers and the change notification both come through here, so
// no bump is stamped nowhere; the map is copy-on-write, so neither takes a
// lock.
func (s *Server) derivedFor(name string) *netDerived {
	for {
		old := s.nets.Load()
		if nd := (*old)[name]; nd != nil {
			return nd
		}
		nd := &netDerived{}
		nd.touched.Store(new([]atomic.Uint64))
		next := maps.Clone(*old)
		next[name] = nd
		if s.nets.CompareAndSwap(old, &next) {
			return nd
		}
	}
}

// onStoreDelta is the store's change notification (fired on the writer's
// goroutine, before the bumped version is published): it stamps the delta,
// in O(delta) whatever the caches hold.
func (s *Server) onStoreDelta(name string, gen uint64, d store.Delta) {
	s.derivedFor(name).record(gen, d)
}
