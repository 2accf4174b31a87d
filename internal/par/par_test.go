package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Errorf("Workers(4) != 4")
	}
	if Workers(0) < 1 {
		t.Errorf("Workers(0) < 1")
	}
	if Workers(-3) != 1 {
		t.Errorf("Workers(-3) != 1")
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var sum atomic.Int64
		seen := make([]atomic.Bool, n)
		ForEach(workers, n, func(i int) {
			if seen[i].Swap(true) {
				t.Errorf("workers=%d: index %d visited twice", workers, i)
			}
			sum.Add(int64(i))
		})
		if got := sum.Load(); got != n*(n-1)/2 {
			t.Errorf("workers=%d: sum=%d, want %d", workers, got, n*(n-1)/2)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Errorf("fn called for empty range") })
}

// orderedFolds are the two ordered folds over the indices [0, n): Ordered,
// and OrderedFrom over a source that counts them out. Every Ordered test
// runs on both.
var orderedFolds = map[string]func(workers, n int, solve func(int) int, reduce func(int) bool) bool{
	"Ordered": Ordered[int],
	"OrderedFrom": func(workers, n int, solve func(int) int, reduce func(int) bool) bool {
		return OrderedFrom(workers, counter(n), solve, reduce)
	},
}

// counter is a source for OrderedFrom that yields 0, …, n−1. It must not
// be called again once it has returned false.
func counter(n int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i > n {
			panic("next called after it returned false")
		}
		i++
		return i - 1, i <= n
	}
}

// orderedRun runs ordered and returns the results reduced, in the order
// reduce saw them, and the fold's report.
func orderedRun(ordered func(int, int, func(int) int, func(int) bool) bool, workers, n int, solve func(int) int, stopAfter int) ([]int, bool) {
	var got []int
	all := ordered(workers, n, solve, func(r int) bool {
		got = append(got, r)
		return stopAfter <= 0 || len(got) < stopAfter
	})
	return got, all
}

// TestOrderedOrder checks that reduce sees every result in index order for
// every worker count — fewer than, as many as and more than the indices —
// even though solve finishes out of order.
func TestOrderedOrder(t *testing.T) {
	for name, ordered := range orderedFolds {
		for _, n := range []int{0, 1, 3, 200} {
			for _, workers := range []int{1, 2, 5, 16, 400} {
				got, all := orderedRun(ordered, workers, n, func(i int) int {
					if i%3 == 0 { // stagger completion order
						for j := 0; j < 1000; j++ {
							_ = j * j
						}
					}
					return i
				}, 0)
				if !all || len(got) != n {
					t.Fatalf("%s n=%d workers=%d: reduced %d of %d, all=%v", name, n, workers, len(got), n, all)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("%s n=%d workers=%d: out of order at %d: %v", name, n, workers, i, got[:i+1])
					}
				}
			}
		}
	}
}

// TestOrderedHoldsResultsBehindASlowIndex staggers the solves as far as
// they go: index 0 finishes only once every other index has, so all of
// them are held until it arrives, and the fold must still reduce them in
// order.
func TestOrderedHoldsResultsBehindASlowIndex(t *testing.T) {
	const n = 300
	for _, workers := range []int{2, 4} {
		var solved atomic.Int64
		rest := make(chan struct{})
		got, all := orderedRun(Ordered[int], workers, n, func(i int) int {
			if i == 0 {
				<-rest
				return 0
			}
			if solved.Add(1) == n-1 {
				close(rest)
			}
			return i
		}, 0)
		if !all || len(got) != n {
			t.Fatalf("workers=%d: reduced %d of %d, all=%v", workers, len(got), n, all)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: out of order at %d", workers, i)
			}
		}
	}
}

// TestOrderedFromRunsAheadAtMostTwiceTheWorkers is that stagger for
// OrderedFrom, which holds back instead: index 0 finishes only once
// 2×workers items have been taken from next, the most it may take before
// index 0 is reduced, and no more may have been taken when it is.
func TestOrderedFromRunsAheadAtMostTwiceTheWorkers(t *testing.T) {
	const n = 300
	for _, workers := range []int{2, 4} {
		var taken atomic.Int64
		next := counter(n)
		full := make(chan struct{})
		reduced := 0
		all := OrderedFrom(workers,
			func() (int, bool) {
				if taken.Add(1) == int64(2*workers) {
					close(full)
				}
				return next()
			},
			func(i int) int {
				if i == 0 {
					<-full
					runtime.Gosched()
				}
				return i
			},
			func(r int) bool {
				if r != reduced {
					t.Errorf("workers=%d: reduced %d at position %d", workers, r, reduced)
				}
				if r == 0 && taken.Load() > int64(2*workers) {
					t.Errorf("workers=%d: %d items taken before the first was reduced, want at most %d", workers, taken.Load(), 2*workers)
				}
				reduced++
				return true
			})
		if !all || reduced != n {
			t.Errorf("workers=%d: reduced %d of %d, all=%v", workers, reduced, n, all)
		}
	}
}

// TestOrderedEarlyStop checks that a false return from reduce ends the
// fold and that exactly the prefix before the stop was reduced.
func TestOrderedEarlyStop(t *testing.T) {
	for name, ordered := range orderedFolds {
		for _, workers := range []int{1, 4} {
			got, all := orderedRun(ordered, workers, 1<<20, func(i int) int { return i }, 10)
			if all || len(got) != 10 {
				t.Errorf("%s workers=%d: reduced %d items (all=%v), want 10", name, workers, len(got), all)
			}
			for i, v := range got {
				if v != i {
					t.Errorf("%s workers=%d: reduced[%d]=%d", name, workers, i, v)
				}
			}
		}
	}
}

// TestOrderedStopClaimsNoMore pins what a stop costs when solves finish in
// index order (solve(i) returns only once result i-1 is reduced or the fold
// has stopped): no index is claimed after reduce returns false, so the
// solves beyond the stop are the ones in flight on the other workers, at
// most workers−1 of them, and their results are discarded.
func TestOrderedStopClaimsNoMore(t *testing.T) {
	const n, stopAt = 1000, 20
	for name, ordered := range orderedFolds {
		for _, workers := range []int{1, 2, 4, 8} {
			reduced := make([]chan struct{}, n)
			for i := range reduced {
				reduced[i] = make(chan struct{})
			}
			stopped := make(chan struct{})
			solved := make([]atomic.Bool, n)
			var count int
			all := ordered(workers, n,
				func(i int) int {
					if i > 0 {
						select {
						case <-reduced[i-1]:
						case <-stopped:
						}
					}
					solved[i].Store(true)
					return i
				},
				func(r int) bool {
					if r != count {
						t.Errorf("%s workers=%d: reduced %d at position %d", name, workers, r, count)
					}
					count++
					if r == stopAt {
						close(stopped)
						return false
					}
					close(reduced[r])
					return true
				})
			if all || count != stopAt+1 {
				t.Errorf("%s workers=%d: reduced %d (all=%v), want %d", name, workers, count, all, stopAt+1)
			}
			discarded := 0
			for i := range solved {
				if !solved[i].Load() {
					continue
				}
				if i > stopAt {
					discarded++
				}
				if i >= stopAt+workers {
					t.Errorf("%s workers=%d: index %d solved, past the stop at %d and the workers in flight", name, workers, i, stopAt)
				}
			}
			if discarded > workers-1 {
				t.Errorf("%s workers=%d: %d solved results discarded, want at most %d", name, workers, discarded, workers-1)
			}
		}
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// panicAt is fn for the panic tests: index at panics with a value naming
// it; every call is counted, and running counts the calls in progress.
func panicAt(at int, calls, running *atomic.Int64) func(i int) int {
	return func(i int) int {
		calls.Add(1)
		running.Add(1)
		defer running.Add(-1)
		if i == at {
			panic(fmt.Sprintf("boom at %d", i))
		}
		return i
	}
}

// TestForEachPanic: a panic in fn, on whichever goroutine it runs, reaches
// the caller with its value, after the other calls in flight have returned
// and without the remaining indices being started.
func TestForEachPanic(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 4} {
		var calls, running atomic.Int64
		fn := panicAt(5, &calls, &running)
		v := recovered(func() { ForEach(workers, n, func(i int) { fn(i) }) })
		if v != "boom at 5" {
			t.Fatalf("workers=%d: recovered %v, want the panic's value", workers, v)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("workers=%d: %d calls still running after ForEach panicked", workers, r)
		}
		if c := calls.Load(); c >= n {
			t.Errorf("workers=%d: all %d indices started despite the panic", workers, c)
		}
	}
}

// TestOrderedPanic is TestForEachPanic for Ordered, with the panic raised
// in solve and in reduce.
func TestOrderedPanic(t *testing.T) {
	const n = 1 << 20
	for name, ordered := range orderedFolds {
		for _, workers := range []int{1, 4} {
			var calls, running atomic.Int64
			solve := panicAt(5, &calls, &running)
			reducedAfter := false
			v := recovered(func() {
				ordered(workers, n, solve, func(r int) bool {
					reducedAfter = reducedAfter || r > 5
					return true
				})
			})
			if v != "boom at 5" {
				t.Fatalf("%s workers=%d: recovered %v, want the panic's value", name, workers, v)
			}
			if r := running.Load(); r != 0 {
				t.Errorf("%s workers=%d: %d solves still running after Ordered panicked", name, workers, r)
			}
			if c := calls.Load(); c >= n {
				t.Errorf("%s workers=%d: all %d indices started despite the panic", name, workers, c)
			}
			if reducedAfter {
				t.Errorf("%s workers=%d: a result after the panicking index was reduced", name, workers)
			}

			calls.Store(0)
			v = recovered(func() {
				ordered(workers, n, func(i int) int { calls.Add(1); return i }, func(r int) bool {
					if r == 7 {
						panic("reduce failed")
					}
					return true
				})
			})
			if v != "reduce failed" {
				t.Fatalf("%s workers=%d: recovered %v from a panicking reduce", name, workers, v)
			}
			if c := calls.Load(); c >= n {
				t.Errorf("%s workers=%d: all %d indices solved despite the panic in reduce", name, workers, c)
			}
		}
	}
}

// TestOrderedFromCallsNextSerially: OrderedFrom's source is read one item
// at a time, never concurrently with itself, and never again once it has
// run dry (counter panics if it is); a panic in it reaches the caller like
// one in solve.
func TestOrderedFromCallsNextSerially(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var inNext atomic.Bool
		next := counter(500)
		got, all := orderedRun(func(workers, _ int, solve func(int) int, reduce func(int) bool) bool {
			return OrderedFrom(workers, func() (int, bool) {
				if inNext.Swap(true) {
					t.Errorf("workers=%d: next called concurrently", workers)
				}
				defer inNext.Store(false)
				return next()
			}, solve, reduce)
		}, workers, 0, func(i int) int { return i }, 0)
		if !all || len(got) != 500 {
			t.Errorf("workers=%d: reduced %d of 500 (all=%v)", workers, len(got), all)
		}

		i := 0
		v := recovered(func() {
			OrderedFrom(workers, func() (int, bool) {
				if i++; i == 50 {
					panic("read failed")
				}
				return i, true
			}, func(i int) int { return i }, func(int) bool { return true })
		})
		if v != "read failed" {
			t.Errorf("workers=%d: recovered %v from a panicking next", workers, v)
		}
	}
}
