// Package store is the durable network catalog behind flownetd: it owns
// every live network (registration, lookup, generation-tracked mutation)
// and — when configured with a data directory — makes each one crash-safe
// with a per-network write-ahead log and binary snapshots.
//
// Layering: internal/tin is the network itself; this package owns the
// *set* of networks, what makes each one live-updatable (live.go: published
// versions, generation, pending buffer, change deltas) and their
// persistence, and internal/server is reduced to HTTP handling on top. Each
// network is a Shard with its own writer mutex and its own WAL, so ingest
// on one network never contends with ingest on another.
//
// Durability contract. Every accepted mutation — Append (including parked
// out-of-order items), Reindex, vertex growth, CreateNetwork — is applied
// to the in-memory network and then recorded to the shard's WAL before the
// call returns; with Config.SyncEveryBatch the record is also fsynced. A
// crash therefore loses at most mutations that were never acknowledged,
// and loses them whole: recovery (Open) rebuilds each shard from its
// newest snapshot + WAL-prefix replay, stopping at the first torn record,
// which reproduces the exact acknowledged state — contents, pending
// buffer, and generation.
//
// Checkpoints. When a shard's WAL accumulates Config.SnapshotEvery
// records, a background goroutine writes the network to a binary snapshot
// (internal/tin's codec) and starts a fresh WAL based on it. The
// snapshot/WAL pair is committed by two renames ordered so that every
// crash point recovers: the snapshot is renamed into place first, and the
// new WAL — whose header points at the snapshot — second; recovery prefers
// the newest WAL whose base it can load and falls back to the previous
// pair otherwise.
//
// On-disk layout, one subdirectory per network (name URL-path-escaped):
//
//	<dir>/<name>/snapshot-g<gen>.tinb   binary snapshot at generation <gen>
//	<dir>/<name>/wal-g<gen>.log         mutations applied after that base
package store

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flownet/internal/fault"
	"flownet/internal/tin"
)

// ErrDuplicate reports a Create/Add under a name that is already
// registered.
var ErrDuplicate = errors.New("store: network already exists")

// ErrDurability wraps WAL failures on the write path: the mutation was
// applied in memory but could not be made durable.
var ErrDurability = errors.New("store: durability failure")

// ErrReadOnly reports a mutation rejected because the shard is poisoned:
// an earlier WAL failure left memory ahead of disk, and writes stay
// rejected until a repair snapshot re-synchronizes the two. Nothing of
// the rejected mutation was applied, so the write is safely retryable
// once the (already queued) repair lands — the server maps it to 503 +
// Retry-After, unlike a fresh durability failure (500, the batch IS in
// memory). ErrReadOnly wraps ErrDurability, so errors.Is checks against
// either sentinel match.
var ErrReadOnly = fmt.Errorf("%w: shard is read-only pending repair", ErrDurability)

// DefaultSnapshotEvery is the checkpoint threshold (WAL records per
// network) used when Config.SnapshotEvery is 0.
const DefaultSnapshotEvery = 256

// Config configures a Store.
type Config struct {
	// Dir is the data directory. Empty disables durability: the store is a
	// purely in-memory catalog (no WAL, no snapshots, nothing to recover).
	Dir string
	// SyncEveryBatch fsyncs the WAL after every record. Off, records are
	// still written (and thus survive a process kill) but the operating
	// system decides when they reach the disk; fsync happens at checkpoints
	// and on Close.
	SyncEveryBatch bool
	// SnapshotEvery is the number of WAL records that triggers a background
	// checkpoint of a shard. 0 selects DefaultSnapshotEvery; negative
	// disables automatic checkpoints (Shard.Snapshot still works).
	SnapshotEvery int
	// FS is the filesystem every disk operation goes through. Nil selects
	// the real filesystem (fault.OS). Tests pass a fault.Injector here to
	// drive the failure paths — write errors, short writes, fsync
	// failures, latency — deterministically (see internal/fault).
	FS fault.FS
	// Mmap serves recovered snapshots zero-copy via mmap where the
	// platform supports it (falling back to the regular decode elsewhere):
	// recovery becomes a header check instead of a full read, and networks
	// larger than RAM stay servable. Ingest leaves the mapped base in place
	// (appended interactions live in a heap tail over it); the mapping is
	// released once a fold — at a checkpoint, or when the tail has grown
	// large — has moved the network onto the heap and the last reader of
	// the mapped versions is gone, or when the store closes. Snapshot open
	// failures still go through FS, so fault injection keeps gating the
	// load path.
	Mmap bool
}

// Stats are the store-wide durability counters, surfaced at /stats.
type Stats struct {
	Networks   int
	Durable    bool
	WALAppends uint64
	WALFsyncs  uint64
	Snapshots  uint64
	Recoveries uint64
}

// Durability describes one shard's durability state, surfaced at /healthz
// so operators can see checkpoint lag.
type Durability struct {
	// Durable reports whether the shard has a WAL at all.
	Durable bool
	// WALRecordsPending / WALBytesPending measure the current WAL — the
	// replay work a crash right now would cost, i.e. the checkpoint lag.
	WALRecordsPending int
	WALBytesPending   int64
	// BaseGeneration is the generation of the snapshot (or empty base) the
	// current WAL builds on.
	BaseGeneration uint64
	// LastSnapshot is the time of the newest snapshot, zero when the shard
	// has never been checkpointed.
	LastSnapshot time.Time
	// CheckpointError is the most recent background checkpoint failure,
	// empty when the last checkpoint succeeded.
	CheckpointError string
	// WALError is the WAL write failure that made the shard read-only
	// (memory is ahead of disk; a successful snapshot repairs it). Empty
	// on a healthy shard.
	WALError string
	// Mmap reports whether the live network's base is currently served
	// zero-copy from an mmap'd snapshot. It flips to false at the first
	// fold after recovery (the next checkpoint, at the latest) and is
	// always false when Config.Mmap is off or the platform lacks mmap.
	Mmap bool
}

// Store is a concurrency-safe catalog of live networks with optional
// durability. Create one with Open; all methods are safe for concurrent
// use.
type Store struct {
	cfg           Config
	snapshotEvery int
	fs            fault.FS

	mu     sync.Mutex
	shards map[string]*Shard
	// reserved holds names whose Create/Add is doing disk work outside
	// s.mu: the name is taken (duplicate checks see it) but not yet
	// queryable, so a slow initial snapshot never blocks readers.
	reserved map[string]bool

	// subs is replaced, never modified, so notify reads it without a lock
	// (two networks' ingests do not meet here); subMu orders subscribers.
	subMu sync.Mutex
	subs  atomic.Pointer[[]func(name string, gen uint64, delta Delta)]

	walAppends atomic.Uint64
	walFsyncs  atomic.Uint64
	snapshots  atomic.Uint64
	recoveries atomic.Uint64

	ckCh      chan *Shard
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// lockFile holds the advisory lock on the data directory (see
	// lockDir); nil on in-memory stores and non-unix platforms.
	lockFile *os.File
}

// Open creates a store. With cfg.Dir set it recovers every network found
// there — snapshot load plus WAL replay — before returning, and starts the
// background checkpointer. Open with an empty Dir cannot fail.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		cfg:           cfg,
		snapshotEvery: cfg.SnapshotEvery,
		fs:            cfg.FS,
		shards:        make(map[string]*Shard),
		reserved:      make(map[string]bool),
	}
	if s.fs == nil {
		s.fs = fault.OS{}
	}
	if s.snapshotEvery == 0 {
		s.snapshotEvery = DefaultSnapshotEvery
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := s.fs.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, err
	}
	if err := s.lockDir(cfg.Dir); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(cfg.Dir)
	if err != nil {
		s.unlockDir()
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			s.abortOpen()
			return nil, fmt.Errorf("store: undecodable network directory %q", e.Name())
		}
		sh, err := s.recoverShard(filepath.Join(cfg.Dir, e.Name()), name)
		if errors.Is(err, errNoWAL) {
			// A directory without any WAL is a Create/Add that died before
			// its commit point (the WAL rename): the creation was never
			// acknowledged, so removing the leftovers — not failing the
			// whole catalog — is the correct recovery. Directories that do
			// not look like ours are left untouched (a mistyped -data-dir
			// must never eat user data) and simply not registered.
			s.cleanupGhostDir(filepath.Join(cfg.Dir, e.Name()))
			continue
		}
		if err != nil {
			s.abortOpen()
			return nil, fmt.Errorf("store: recovering network %q: %w", name, err)
		}
		s.shards[name] = sh
		s.recoveries.Add(1)
	}
	s.ckCh = make(chan *Shard, 64)
	s.stop = make(chan struct{})
	s.wg.Add(1)
	go s.checkpointer()
	return s, nil
}

// abortOpen releases everything a partially completed Open acquired: the
// WAL descriptors of already-recovered shards and the directory lock.
func (s *Store) abortOpen() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.close()
			sh.wal = nil
		}
	}
	s.unlockDir()
}

// SubscribeDelta registers fn to be called after every change that bumps a
// network's generation (append, reindex, grow) with the network's name, new
// generation, and the change delta (see Delta) — the hook through
// which derived state (pattern tables, memoized answers) is maintained
// incrementally instead of rebuilt. Callbacks run on the mutating goroutine
// *before* the bumped version is published: they must be fast and must not
// query the store. Because of that order, a reader that pins generation g
// has a guarantee that the callback already ran for every bump up to g —
// delta consumers can therefore keep an exact per-network record of what
// changed with no gaps. Readers are not held up meanwhile: one pinned at an
// older generation may be running while the callback records a newer
// delta, so a consumer must tag what it records with the generation.
// Recovery replay does not notify (it happens before SubscribeDelta can be
// called on the returned store).
// Subscriptions last for the store's lifetime — there is no unsubscribe —
// so a subscriber must live as long as the store (one Server per Store, as
// cmd/flownetd does).
func (s *Store) SubscribeDelta(fn func(name string, gen uint64, delta Delta)) {
	if fn == nil {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	var subs []func(string, uint64, Delta)
	if old := s.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, fn)
	s.subs.Store(&subs)
}

// notify fans one generation bump out to the subscribers. Shards call it
// from draft.bump, before the bumped version is published.
func (s *Store) notify(name string, gen uint64, delta Delta) {
	if subs := s.subs.Load(); subs != nil {
		for _, fn := range *subs {
			fn(name, gen, delta)
		}
	}
}

// durable reports whether the store persists anything.
func (s *Store) durable() bool { return s.cfg.Dir != "" }

func validateName(name string) error {
	// "." and ".." survive url.PathEscape unchanged and would make the
	// shard directory the data dir itself or its parent — acknowledged
	// writes would land outside the directory recovery scans.
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "|\n") {
		return fmt.Errorf("store: invalid network name %q", name)
	}
	return nil
}

func (s *Store) shardDir(name string) string {
	return filepath.Join(s.cfg.Dir, url.PathEscape(name))
}

// reserve takes a name for an in-flight registration, failing on a live
// or already-reserved duplicate. The caller must end with either register
// (success) or unreserve (failure).
func (s *Store) reserve(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.shards[name]; dup || s.reserved[name] {
		return fmt.Errorf("store: network %q: %w", name, ErrDuplicate)
	}
	s.reserved[name] = true
	return nil
}

func (s *Store) unreserve(name string) {
	s.mu.Lock()
	delete(s.reserved, name)
	s.mu.Unlock()
}

// register publishes a reserved shard.
func (s *Store) register(sh *Shard) {
	sh.publishWALStats()
	s.mu.Lock()
	delete(s.reserved, sh.name)
	s.shards[sh.name] = sh
	s.mu.Unlock()
}

// Create registers a new, empty, ingest-ready network with the given
// vertex count. Durable stores persist the creation immediately: the new
// shard's WAL records the vertex count, so the network exists again after
// a restart even if nothing is ever ingested. The disk work happens with
// only the name reserved — concurrent queries on other networks are never
// blocked by it.
func (s *Store) Create(name string, vertices int) (*Shard, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	// The same bounds recovery enforces: a shard the store can create must
	// be a shard the store can reopen.
	if vertices < 0 || vertices > maxCreateVertices {
		return nil, fmt.Errorf("store: vertex count %d outside [0,%d]", vertices, maxCreateVertices)
	}
	if err := s.reserve(name); err != nil {
		return nil, err
	}
	sh := &Shard{store: s, name: name}
	sh.publish(tin.NewBuilder(vertices).Finalize(), 1, 0)
	if s.durable() {
		if err := sh.makeDir(); err != nil {
			s.unreserve(name)
			return nil, err
		}
		w, err := createWAL(s.fs, sh.walPath(1), walHeader{baseGen: 1, numV: uint64(vertices)}, nil)
		if err != nil {
			s.cleanupGhostDir(sh.dir)
			s.unreserve(name)
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		sh.wal = w
		sh.baseGen = 1
	}
	s.register(sh)
	return sh, nil
}

// makeDir creates the shard's directory, refusing to adopt one that
// already exists: on a case-insensitive filesystem two names differing
// only in case fold to the same directory, and sharing it would let the
// second shard's WAL rename over the first's — silent loss of
// acknowledged batches. (Recovered shards hold their directories via the
// catalog, so an existing directory here is either a case collision or
// foreign data; both must fail.)
func (sh *Shard) makeDir() error {
	sh.dir = sh.store.shardDir(sh.name)
	if err := sh.store.fs.Mkdir(sh.dir, 0o777); err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("store: network %q: directory %s already exists (case-insensitive name collision?): %w",
				sh.name, sh.dir, ErrDuplicate)
		}
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// Add registers an externally built network — the -net load path.
// Durable stores write the network's initial binary snapshot right away,
// so recovery is self-contained: a restart restores the network
// (plus everything ingested since) from the data directory alone, without
// the original file. Like Create, the snapshot write happens with only
// the name reserved, so a large initial snapshot never stalls queries.
func (s *Store) Add(name string, n *tin.Network) (*Shard, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if n == nil {
		return nil, fmt.Errorf("store: network %q must be non-nil", name)
	}
	// ReadNetworkBinary rejects empty and oversized snapshots, so Add must
	// too, or the initial snapshot would be unrecoverable.
	if n.NumVertices() == 0 || n.NumVertices() > maxCreateVertices {
		return nil, fmt.Errorf("store: network %q: vertex count %d outside [1,%d]", name, n.NumVertices(), maxCreateVertices)
	}
	if err := s.reserve(name); err != nil {
		return nil, err
	}
	sh := &Shard{store: s, name: name}
	sh.publish(n, 1, 0)
	if s.durable() {
		if err := sh.makeDir(); err != nil {
			s.unreserve(name)
			return nil, err
		}
		fail := func(err error) (*Shard, error) {
			s.cleanupGhostDir(sh.dir)
			s.unreserve(name)
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		if err := sh.saveSnapshot(sh.snapshotPath(1), n); err != nil {
			return fail(err)
		}
		w, err := createWAL(s.fs, sh.walPath(1), walHeader{baseGen: 1, numV: uint64(n.NumVertices()), hasBase: true}, nil)
		if err != nil {
			return fail(err)
		}
		sh.wal = w
		sh.baseGen = 1
		sh.lastSnapshot.Store(time.Now().UnixNano())
	}
	s.register(sh)
	return sh, nil
}

// Get returns the shard registered under name.
func (s *Store) Get(name string) (*Shard, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[name]
	return sh, ok
}

// Resolve resolves a request's network name: empty selects the sole
// registered network, anything else must match exactly.
func (s *Store) Resolve(name string) (*Shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.shards) == 1 {
			for _, sh := range s.shards {
				return sh, nil
			}
		}
		return nil, fmt.Errorf("%d networks loaded; pass net=<name>", len(s.shards))
	}
	sh, ok := s.shards[name]
	if !ok {
		return nil, fmt.Errorf("unknown network %q", name)
	}
	return sh, nil
}

// Shards returns the registered shards, sorted by name.
func (s *Store) Shards() []*Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	shs := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shs = append(shs, sh)
	}
	sort.Slice(shs, func(a, b int) bool { return shs[a].name < shs[b].name })
	return shs
}

// Len returns the number of registered networks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Stats returns the store-wide durability counters.
func (s *Store) Stats() Stats {
	return Stats{
		Networks:   s.Len(),
		Durable:    s.durable(),
		WALAppends: s.walAppends.Load(),
		WALFsyncs:  s.walFsyncs.Load(),
		Snapshots:  s.snapshots.Load(),
		Recoveries: s.recoveries.Load(),
	}
}

// Close stops the background checkpointer, fsyncs and closes every WAL and
// releases every snapshot mapping, waiting for the readers still pinned on
// one. The store must not be used afterwards. Close is idempotent.
func (s *Store) Close() error {
	var first error
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			s.wg.Wait()
		}
		for _, sh := range s.Shards() {
			sh.mu.Lock()
			if sh.wal != nil {
				if err := sh.wal.close(); err != nil && first == nil {
					first = err
				}
				sh.wal = nil
				sh.publishWALStats()
			}
			// Release every snapshot mapping: retire the current version if
			// it sits on one, and wait until the last reader pinned on a
			// mapped base — current or superseded — lets go. The store is
			// specified as unusable after Close, so the network going with
			// it is part of the contract.
			if cur := sh.cur.Load(); cur.mapping != nil {
				cur.unpin()
			}
			mappings := sh.mappings
			sh.mu.Unlock()
			for _, m := range mappings {
				<-m.gone
			}
		}
		s.unlockDir()
	})
	return first
}

// checkpointer drains checkpoint requests queued by maybeCheckpoint.
func (s *Store) checkpointer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case sh := <-s.ckCh:
			sh.ckQueued.Store(false)
			err := sh.Snapshot()
			sh.setCheckpointErr(err)
		}
	}
}

// ---- Shard -------------------------------------------------------------

// Shard is one live network owned by the store: the published version that
// serves queries (see live.go) and the WAL that makes mutations durable.
// Mutations on different shards proceed in parallel; mutations on one shard
// are serialized by mu. All methods are safe for concurrent use.
//
// One writer mutex and one published version:
//
//   - mu is the writer lock. One mutation (derive the next version, notify,
//     publish, then WAL append) or one checkpoint (fold, publish, snapshot
//     write, WAL switch) holds it at a time, across all of its disk IO.
//     Queries never touch it.
//   - cur is the current version. Queries load and pin it (Acquire): they
//     never wait for a writer, a writer never waits for them, and a pinned
//     version stays exactly as it was for as long as the pin is held —
//     through any number of appends, folds and checkpoints. A superseded
//     version is garbage once its pins are gone; if its base was an mmap'd
//     snapshot, the last pin to drop (over all versions sharing that base)
//     unmaps it.
//
// The control plane (Generation, Pending, Durability) loads cur and reads
// the statsMu-guarded mirrors; it takes no lock a writer holds across IO.
type Shard struct {
	store *Store
	name  string
	dir   string // "" when the store is not durable

	// cur is replaced, never modified; only the holder of mu stores it.
	cur atomic.Pointer[version]
	// mappings lists the snapshot mappings this shard has served from (one,
	// made at recovery, unless a later change starts mapping folded bases),
	// for Close to wait on. Guarded by mu.
	mappings []*mapping

	mu sync.Mutex
	// pending holds the parked out-of-order items in arrival order; its
	// length rides every published version.
	pending []Item
	wal     *walFile
	baseGen uint64

	// statsMu guards the durability stats mirrored from the WAL (and the
	// write-path poison). Durability reads them under statsMu alone, so a
	// health probe is never queued behind a long checkpoint holding mu.
	// statsMu nests strictly inside mu and is never held across IO.
	statsMu   sync.Mutex
	stDurable bool
	stRecords int
	stBytes   int64
	stBaseGen uint64
	walErr    error // first WAL append failure; poisons the write path

	lastSnapshot atomic.Int64 // unix nanos; 0 = never

	ckQueued atomic.Bool
	ckErrMu  sync.Mutex
	ckErr    error
}

// publishWALStats mirrors the WAL counters into the statsMu-guarded copy.
// Callers hold sh.mu (or own the shard exclusively, before registration).
func (sh *Shard) publishWALStats() {
	sh.statsMu.Lock()
	sh.stDurable = sh.wal != nil
	if sh.wal != nil {
		sh.stRecords = sh.wal.records
		sh.stBytes = sh.wal.size - walHeaderSize
	} else {
		sh.stRecords, sh.stBytes = 0, 0
	}
	sh.stBaseGen = sh.baseGen
	sh.statsMu.Unlock()
}

func (sh *Shard) setWALErr(err error) {
	sh.statsMu.Lock()
	sh.walErr = err
	sh.statsMu.Unlock()
}

func (sh *Shard) getWALErr() error {
	sh.statsMu.Lock()
	defer sh.statsMu.Unlock()
	return sh.walErr
}

// Name returns the shard's registered network name.
func (sh *Shard) Name() string { return sh.name }

// Append applies a batch to the live network (see applyAppend for the
// ordering contract) and records it to the WAL. Validation failures leave
// both untouched — except that a Grow which already extended the vertex
// space stays, bumps the generation and is logged on its own. A WAL failure
// after a successful apply is reported as ErrDurability (the memory state
// has the batch, the disk does not) and poisons the shard: further writes
// are rejected until a successful Snapshot re-synchronizes disk with
// memory, so no later batch can be validated against a state the WAL never
// saw.
func (sh *Shard) Append(items []Item, opts Options) (Result, error) {
	return sh.mutate(walRec{op: opAppend, items: items, opts: opts}, "batch")
}

// Reindex merges the pending buffer into the live network and records the
// merge to the WAL. It is a no-op when nothing is pending.
func (sh *Shard) Reindex() (Result, error) {
	return sh.mutate(walRec{op: opReindex}, "reindex")
}

// Grow extends the vertex space to numV vertices (new vertices start
// isolated) and records the growth to the WAL. It is a no-op when the
// network already has that many; growth past tin.MaxVertices is refused.
func (sh *Shard) Grow(numV int) (Result, error) {
	return sh.mutate(walRec{op: opGrow, numV: numV}, "vertex growth")
}

// mutate is the one write path: apply the mutation in memory, then log
// what actually happened. what names the mutation in durability errors.
func (sh *Shard) mutate(m walRec, what string) (Result, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.writable(); err != nil {
		return Result{}, err
	}
	out, err := sh.apply(m)
	if err != nil {
		if sh.wal != nil && out.grew {
			// The batch failed validation *after* Grow already extended
			// the vertex space, which is query-observable and stays: log
			// the grow on its own so recovery reproduces it. The original
			// validation error rides along — the client needs it to
			// construct a corrected retry.
			if werr := sh.log(encodeGrow(out.numV)); werr != nil {
				return out.Result, errors.Join(fmt.Errorf("%w: recording vertex growth: %v", ErrDurability, werr), err)
			}
		}
		return out.Result, err
	}
	if sh.wal != nil && out.changed() {
		if werr := sh.log(m.encode()); werr != nil {
			return out.Result, fmt.Errorf("%w: %s applied in memory but not logged: %v", ErrDurability, what, werr)
		}
	}
	sh.maybeCheckpoint()
	return out.Result, nil
}

// writable rejects mutations on a poisoned durable shard. Callers hold
// sh.mu. The in-memory network is ahead of the WAL after an append
// failure; accepting more batches would validate them against a state
// that recovery cannot reproduce. Each rejected attempt queues a repair
// checkpoint (Snapshot rewrites disk from memory and lifts the poison), so
// a shard poisoned by a transient failure — a momentarily full disk —
// heals on the next write traffic instead of staying read-only until a
// restart.
func (sh *Shard) writable() error {
	if sh.wal == nil {
		return nil
	}
	if err := sh.getWALErr(); err != nil {
		sh.queueCheckpoint()
		return fmt.Errorf("%w (WAL write failure: %v; repair snapshot queued)", ErrReadOnly, err)
	}
	return nil
}

// log appends one record to the WAL under sh.mu, honouring the fsync
// policy and the store counters. A failure poisons the shard (see
// writable).
func (sh *Shard) log(payload []byte) error {
	sync := sh.store.cfg.SyncEveryBatch
	if err := sh.wal.append(payload, sync); err != nil {
		sh.setWALErr(err)
		return err
	}
	sh.store.walAppends.Add(1)
	if sync {
		sh.store.walFsyncs.Add(1)
	}
	sh.publishWALStats()
	return nil
}

func (sh *Shard) maybeCheckpoint() {
	if sh.wal == nil || sh.store.snapshotEvery <= 0 || sh.wal.records < sh.store.snapshotEvery {
		return
	}
	sh.queueCheckpoint()
}

// queueCheckpoint hands the shard to the background checkpointer, at most
// once until that run completes. Durable stores always run a checkpointer
// (even with automatic cadence disabled), so repair snapshots can be
// queued from any durable shard.
func (sh *Shard) queueCheckpoint() {
	if !sh.ckQueued.CompareAndSwap(false, true) {
		return
	}
	select {
	case sh.store.ckCh <- sh:
	default:
		sh.ckQueued.Store(false) // queue full; the next append retries
	}
}

func (sh *Shard) walPath(gen uint64) string {
	return filepath.Join(sh.dir, fmt.Sprintf("wal-g%d.log", gen))
}

func (sh *Shard) snapshotPath(gen uint64) string {
	return filepath.Join(sh.dir, fmt.Sprintf("snapshot-g%d.tinb", gen))
}

// Snapshot checkpoints the shard now: it folds the live network's tail
// into a fresh base (the file is that image, and the write is O(N)
// anyway), publishes the folded version, writes it to a new binary
// snapshot, starts a fresh WAL based on it (carrying the pending
// out-of-order buffer forward), and deletes the previous snapshot/WAL
// pair. Appends to this shard block for the duration; queries never do. A
// no-op when the current WAL has no records. A successful Snapshot also repairs a
// poisoned shard (see Append): the new snapshot/WAL pair is derived from
// the in-memory state, so disk and memory agree again and writes resume.
func (sh *Shard) Snapshot() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.wal == nil {
		return errors.New("store: network is not durable")
	}
	if sh.wal.records == 0 && sh.getWALErr() == nil {
		return nil
	}
	// mu keeps writers out, so the current version stays current — and its
	// mapping, if any, mapped — for the whole checkpoint; queries keep
	// running on whatever they pinned. The fold changes the representation,
	// not the content: same generation, nothing to announce.
	cur := sh.cur.Load()
	gen, net := cur.gen, cur.net.Folded()
	if net != cur.net {
		sh.publish(net, gen, cur.pending)
	}
	hdr := walHeader{baseGen: gen, numV: uint64(net.NumVertices()), hasBase: true}
	// The pending buffer is not part of the tin snapshot; it rides in the
	// new WAL as its first record, which replays into the same parked
	// state (all pending items precede the snapshot's MaxTime, so a
	// deferred append parks every one of them again without a bump).
	var firstRecord []byte
	if len(sh.pending) > 0 {
		firstRecord = encodeAppend(sh.pending, Options{OnOutOfOrder: PolicyDefer})
	}
	if err := sh.saveSnapshot(sh.snapshotPath(gen), net); err != nil {
		return err
	}
	w, err := createWAL(sh.store.fs, sh.walPath(gen), hdr, firstRecord)
	if err != nil {
		return err
	}
	oldGen, oldWal := sh.baseGen, sh.wal
	sh.wal, sh.baseGen = w, gen
	sh.setWALErr(nil) // disk now mirrors memory exactly
	sh.publishWALStats()
	oldWal.close()
	if oldGen != gen {
		// Best-effort cleanup; recovery removes leftovers too.
		sh.store.fs.Remove(sh.snapshotPath(oldGen))
		sh.store.fs.Remove(sh.walPath(oldGen))
	}
	sh.lastSnapshot.Store(time.Now().UnixNano())
	sh.store.snapshots.Add(1)
	return nil
}

// Durability reports the shard's current durability state. It reads the
// mirrored stats and the published version only — never sh.mu — so it
// stays responsive while a checkpoint or a syncing append holds the shard
// lock.
func (sh *Shard) Durability() Durability {
	sh.statsMu.Lock()
	d := Durability{
		Durable:           sh.stDurable,
		WALRecordsPending: sh.stRecords,
		WALBytesPending:   sh.stBytes,
		BaseGeneration:    sh.stBaseGen,
	}
	if sh.walErr != nil {
		d.WALError = sh.walErr.Error()
	}
	sh.statsMu.Unlock()
	if ns := sh.lastSnapshot.Load(); ns != 0 {
		d.LastSnapshot = time.Unix(0, ns)
	}
	sh.ckErrMu.Lock()
	if sh.ckErr != nil {
		d.CheckpointError = sh.ckErr.Error()
	}
	sh.ckErrMu.Unlock()
	d.Mmap = sh.cur.Load().mapping != nil
	return d
}

func (sh *Shard) setCheckpointErr(err error) {
	sh.ckErrMu.Lock()
	sh.ckErr = err
	sh.ckErrMu.Unlock()
}

// ---- recovery ----------------------------------------------------------

// errNoWAL marks a network directory with no WAL at all: a durable
// Create/Add that crashed before its commit point (the WAL rename). Open
// cleans such directories up instead of failing the catalog.
var errNoWAL = errors.New("no WAL found")

// cleanupGhostDir removes a WAL-less shard directory, but only when it is
// provably ours: every entry must match the store's on-disk layout and at
// least one must be a wal-g*/snapshot-g* file. An empty directory is
// removed with Remove, which cannot take anything with it. Anything
// else is left untouched — pointing -data-dir at a directory with
// unrelated content must never delete it.
func (s *Store) cleanupGhostDir(dir string) {
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return
	}
	if len(entries) == 0 {
		s.fs.Remove(dir)
		return
	}
	storeFiles := 0
	for _, e := range entries {
		if e.IsDir() {
			return
		}
		n := e.Name()
		switch {
		case strings.HasPrefix(n, "wal-g") || strings.HasPrefix(n, "snapshot-g"):
			storeFiles++
		case strings.HasPrefix(n, ".") && strings.Contains(n, ".tmp-"):
			// atomicSave temp litter.
		default:
			return
		}
	}
	if storeFiles > 0 {
		s.fs.RemoveAll(dir)
	}
}

// saveSnapshot atomically writes the network to path in the binary
// snapshot format, through the store's FS: tmp write, fsync, rename,
// directory fsync. It is the FS-routed equivalent of
// tin.SaveNetworkBinary, so fault injection reaches snapshot IO too.
func (sh *Shard) saveSnapshot(path string, n *tin.Network) error {
	fs := sh.store.fs
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := tin.WriteNetworkBinary(f, n); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	fs.SyncDir(filepath.Dir(path))
	return nil
}

// loadSnapshot reads a binary snapshot through the store's FS. Store
// snapshots are always the plain binary format (saveSnapshot writes
// nothing else), so no format sniffing is needed. With Config.Mmap set the
// snapshot is served zero-copy instead of decoded; the store's FS still
// performs (and can fail) the open, so fault injection gates this path
// exactly like the copying one.
func (sh *Shard) loadSnapshot(path string) (*tin.Network, error) {
	f, err := sh.store.fs.Open(path)
	if err != nil {
		return nil, err
	}
	if sh.store.cfg.Mmap {
		// The injected FS has approved the open; map the real file.
		f.Close()
		return tin.OpenNetworkMmap(path)
	}
	defer f.Close()
	return tin.ReadNetworkBinary(f)
}

// recoverShard rebuilds one network from its directory: newest usable WAL,
// its base (snapshot or empty network), then record replay with torn-tail
// truncation. Leftover files from interrupted checkpoints are removed.
func (s *Store) recoverShard(dir, name string) (*Shard, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var walGens []uint64
	for _, e := range entries {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-g%d.log", &g); n == 1 && e.Name() == fmt.Sprintf("wal-g%d.log", g) {
			walGens = append(walGens, g)
		}
	}
	if len(walGens) == 0 {
		return nil, errNoWAL
	}
	sort.Slice(walGens, func(a, b int) bool { return walGens[a] > walGens[b] })

	sh := &Shard{store: s, name: name, dir: dir}
	var lastErr error
	for _, g := range walGens {
		hdr, recs, goodOff, err := readWAL(s.fs, sh.walPath(g))
		if err != nil {
			lastErr = err
			continue
		}
		var base *tin.Network
		if hdr.hasBase {
			base, err = sh.loadSnapshot(sh.snapshotPath(g))
			if err != nil {
				// Snapshot missing or unreadable: this pair is a torn
				// checkpoint; fall back to the previous one.
				lastErr = err
				continue
			}
		} else {
			if hdr.numV > maxCreateVertices {
				lastErr = fmt.Errorf("WAL base vertex count %d exceeds limit", hdr.numV)
				continue
			}
			base = tin.NewBuilder(int(hdr.numV)).Finalize()
		}
		if hdr.baseGen < 1 {
			lastErr = fmt.Errorf("WAL base generation must be >= 1, got %d", hdr.baseGen)
			continue
		}
		sh.publish(base, hdr.baseGen, 0)
		applied := 0
		for _, rec := range recs {
			if _, err := sh.apply(rec); err != nil {
				// Records are written only after a successful apply, so a
				// replay failure means the tail is inconsistent — cut it
				// off like a torn frame.
				goodOff = rec.start
				break
			}
			applied++
		}
		f, err := s.fs.OpenFile(sh.walPath(g), os.O_RDWR, 0)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, err
		}
		sh.wal = &walFile{f: f, size: goodOff, records: applied}
		sh.baseGen = hdr.baseGen
		sh.publishWALStats()
		if hdr.hasBase {
			if fi, err := s.fs.Stat(sh.snapshotPath(g)); err == nil {
				sh.lastSnapshot.Store(fi.ModTime().UnixNano())
			}
		}
		// Remove every other generation's files and checkpoint leftovers.
		for _, e := range entries {
			n := e.Name()
			if n == fmt.Sprintf("wal-g%d.log", g) || n == fmt.Sprintf("snapshot-g%d.tinb", g) {
				continue
			}
			if strings.HasPrefix(n, "wal-g") || strings.HasPrefix(n, "snapshot-g") ||
				strings.Contains(n, ".tmp") {
				s.fs.Remove(filepath.Join(dir, n))
			}
		}
		return sh, nil
	}
	return nil, fmt.Errorf("no usable WAL: %w", lastErr)
}

// maxCreateVertices is the shared vertex ceiling (tin.MaxVertices): a
// recovered WAL header cannot demand a larger allocation than a live
// create could, and everything Create/Add accept is recoverable.
const maxCreateVertices = tin.MaxVertices
