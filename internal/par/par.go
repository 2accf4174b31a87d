// Package par provides the small deterministic parallel-execution helpers
// behind the library's Workers knobs: a bounded parallel for, and an
// ordered fold whose results are reduced in index order so that a parallel
// run is bit-for-bit identical to its sequential counterpart
// (floating-point sums included).
//
// Both hand out indices from one atomic counter to the calling goroutine
// and workers−1 more; there are no channels and no producer goroutine.
// OrderedFrom is the ordered fold over a sequential source, whose next
// item each claim takes under a lock. A panic in any of them stops the
// hand-out, lets the others drain and is raised again, with its original
// value, on the calling goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is used as given, 0 selects
// GOMAXPROCS, and negative values mean fully sequential (1).
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines,
// the caller among them, and returns when all calls have completed. With
// workers <= 1 (or n <= 1) it is a plain loop on the calling goroutine. fn
// must be safe to call concurrently for distinct indices. If a call panics,
// no further index is started and the panic is raised on the caller once
// the calls in flight have returned.
func ForEach(workers, n int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	c := claims{n: int64(n)}
	spread(workers, c.stop, func() {
		for i, ok := c.claim(); ok; i, ok = c.claim() {
			fn(i)
		}
	})
}

// Ordered runs solve(i) for every i in [0, n) on at most workers
// goroutines, the caller among them, and hands each result to reduce in
// index order, whatever order the solves finish in. It is the building
// block for parallel searches that must agree exactly with their
// sequential versions: reduce sees the results a sequential loop would, in
// its order, so accumulated sums and early-stop decisions are identical.
//
// Workers claim indices from an atomic counter. A result whose
// predecessors are not all reduced yet is held; the worker that completes
// the prefix reduces it and every held result after it, under the fold's
// lock. reduce therefore runs on any of the goroutines but never
// concurrently with itself, and what it writes is the caller's to read once
// Ordered returns; it should be cheap, since a worker that finishes meanwhile
// waits for the lock. solve runs concurrently and must be safe for that.
//
// reduce returns false to stop: no index is claimed after that, and the
// results of the solves in flight (at most workers−1) and of those held
// ahead of the stop are discarded. Ordered returns once every goroutine
// has, and reports whether reduce took all n results. A panic in solve or
// reduce stops it the same way and is raised again on the caller.
func Ordered[R any](workers, n int, solve func(i int) R, reduce func(R) bool) bool {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			if !reduce(solve(i)) {
				return false
			}
		}
		return true
	}
	c := claims{n: int64(n)}
	f := newFold(reduce, c.stop)
	spread(workers, f.stop, func() {
		for i, ok := c.claim(); ok; i, ok = c.claim() {
			if !f.deliver(i, solve(i)) {
				return
			}
		}
	})
	return !f.stopped
}

// OrderedFrom is Ordered over the items next yields rather than over
// [0, n): the k-th item is solved as index k, and its result is reduced
// k-th. A claim calls next under the claim lock, so next never runs
// concurrently with itself and sees its items claimed in the order it
// yields them; once it has returned false, or the fold has stopped, it is
// not called again. It suits a sequential source whose items are costly to
// process, such as a reader cut into blocks: the read stays serial, the
// solves run in parallel and reduce sees the blocks in input order.
//
// Unlike Ordered, it claims at most 2×workers items ahead of the fold: an
// item is taken from next only once every item that many places before it
// has been reduced. So however long one solve takes, at most 2×workers
// items are out between next and reduce, which lets the caller recycle
// their buffers through a pool of that size.
func OrderedFrom[T, R any](workers int, next func() (T, bool), solve func(T) R, reduce func(R) bool) bool {
	if workers <= 1 {
		for t, ok := next(); ok; t, ok = next() {
			if !reduce(solve(t)) {
				return false
			}
		}
		return true
	}
	s := feed[T]{next: next}
	f := newFold(reduce, s.stop)
	s.ready = func(i int) bool { return f.await(i, 2*workers) }
	spread(workers, f.stop, func() {
		for i, t, ok := s.claim(); ok; i, t, ok = s.claim() {
			if !f.deliver(i, solve(t)) {
				return
			}
		}
	})
	return !f.stopped
}

// claims hands out the indices [0, n), each once, from an atomic counter.
type claims struct {
	next atomic.Int64
	n    int64
}

// claim returns the next unclaimed index, or false once none is left.
func (c *claims) claim() (int, bool) {
	i := c.next.Add(1) - 1
	return int(i), i < c.n
}

// stop ends the hand-out: every later claim fails. Indices claimed before
// it are the claimers' to finish.
func (c *claims) stop() { c.next.Store(c.n) }

// feed hands out the items of next, numbered in the order they come.
type feed[T any] struct {
	mu    sync.Mutex
	next  func() (T, bool)
	ready func(i int) bool // waits until index i may be handed out; false if the fold has stopped
	n     int              // items handed out
	done  atomic.Bool      // next has returned false, or the fold has stopped
}

// claim returns the next item and its index, or false once there is none.
func (s *feed[T]) claim() (int, T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t T
	if s.done.Load() || !s.ready(s.n) {
		return 0, t, false
	}
	t, ok := s.next()
	if !ok {
		s.done.Store(true)
		return 0, t, false
	}
	s.n++
	return s.n - 1, t, true
}

// stop ends the hand-out like claims.stop. It does not wait for a claim
// in progress, which completes and is the claimer's to finish.
func (s *feed[T]) stop() { s.done.Store(true) }

// spread runs work on the calling goroutine and on workers−1 others and
// returns once all have returned. If any of them panics, stop is called so
// that the others claim nothing more, and once they have drained, the
// first panic's value is raised again on the calling goroutine.
func spread(workers int, stop func(), work func()) {
	var (
		once      sync.Once
		recovered any
		panicked  bool
		wg        sync.WaitGroup
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { recovered, panicked = r, true })
				stop()
			}
		}()
		work()
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if panicked {
		panic(recovered)
	}
}

// fold reduces the results of Ordered and OrderedFrom in index order.
// held is a ring: held[i&(len(held)-1)] keeps the result of index i, for
// next < i < next+len(held), until its turn; its length is a power of two
// and grows only as far as the workers run ahead of the fold.
type fold[R any] struct {
	mu       sync.Mutex
	reduce   func(R) bool
	end      func() // ends the hand-out of indices; called when the fold stops
	next     int    // index of the next result to reduce
	held     []slot[R]
	stopped  bool
	progress sync.Cond // on mu: next has moved or the fold has stopped
}

// newFold returns a fold over reduce that calls end, which stops the
// hand-out of indices, when it stops.
func newFold[R any](reduce func(R) bool, end func()) *fold[R] {
	f := &fold[R]{reduce: reduce, end: end}
	f.progress.L = &f.mu
	return f
}

type slot[R any] struct {
	r    R
	full bool
}

// deliver hands the fold the result of index i and reports whether the
// fold goes on. If i is next in order, r and every held result after it are
// reduced; otherwise r is held.
func (f *fold[R]) deliver(i int, r R) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return false
	}
	if i != f.next {
		if i-f.next >= len(f.held) {
			f.grow(i - f.next + 1)
		}
		f.held[i&(len(f.held)-1)] = slot[R]{r, true}
		return true
	}
	defer f.progress.Broadcast()
	for {
		if !f.reduce(r) {
			f.halt()
			return false
		}
		if f.next++; len(f.held) == 0 {
			return true
		}
		s := &f.held[f.next&(len(f.held)-1)]
		if !s.full {
			return true
		}
		r = s.r
		*s = slot[R]{}
	}
}

// await blocks until index i is fewer than ahead places past the next
// result to reduce, and reports whether the fold goes on.
func (f *fold[R]) await(i, ahead int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.stopped && i-f.next >= ahead {
		f.progress.Wait()
	}
	return !f.stopped
}

// grow resizes the ring to the next power of two that holds need results
// from next on, keeping each held result at its index.
func (f *fold[R]) grow(need int) {
	size := max(1, 2*len(f.held))
	for size < need {
		size *= 2
	}
	held := make([]slot[R], size)
	for i := f.next; i < f.next+len(f.held); i++ {
		held[i&(size-1)] = f.held[i&(len(f.held)-1)]
	}
	f.held = held
}

// stop discards the fold: nothing more is claimed or reduced.
func (f *fold[R]) stop() {
	f.mu.Lock()
	f.halt()
	f.mu.Unlock()
}

// halt is stop with the lock held: the claims end before any other worker
// can see the fold go on.
func (f *fold[R]) halt() {
	f.stopped = true
	f.progress.Broadcast()
	f.end()
}
