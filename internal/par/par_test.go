package par

import (
	"fmt"
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

// orderedRun runs Ordered and returns the results reduced, in the order
// reduce saw them, and Ordered's report.
func orderedRun(workers, n int, solve func(int) int, stopAfter int) ([]int, bool) {
	var got []int
	all := Ordered(workers, n, solve, func(r int) bool {
		got = append(got, r)
		return stopAfter <= 0 || len(got) < stopAfter
	})
	return got, all
}

// TestOrderedOrder checks that reduce sees every result in index order for
// every worker count — fewer than, as many as and more than the indices —
// even though solve finishes out of order.
func TestOrderedOrder(t *testing.T) {
	for _, n := range []int{0, 1, 3, 200} {
		for _, workers := range []int{1, 2, 5, 16, 400} {
			got, all := orderedRun(workers, n, func(i int) int {
				if i%3 == 0 { // stagger completion order
					for j := 0; j < 1000; j++ {
						_ = j * j
					}
				}
				return i
			}, 0)
			if !all || len(got) != n {
				t.Fatalf("n=%d workers=%d: reduced %d of %d, all=%v", n, workers, len(got), n, all)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("n=%d workers=%d: out of order at %d: %v", n, workers, i, got[:i+1])
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
		got, all := orderedRun(workers, n, func(i int) int {
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

// TestOrderedEarlyStop checks that a false return from reduce ends the
// fold and that exactly the prefix before the stop was reduced.
func TestOrderedEarlyStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, all := orderedRun(workers, 1<<20, func(i int) int { return i }, 10)
		if all || len(got) != 10 {
			t.Errorf("workers=%d: reduced %d items (all=%v), want 10", workers, len(got), all)
		}
		for i, v := range got {
			if v != i {
				t.Errorf("workers=%d: reduced[%d]=%d", workers, i, v)
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
	for _, workers := range []int{1, 2, 4, 8} {
		reduced := make([]chan struct{}, n)
		for i := range reduced {
			reduced[i] = make(chan struct{})
		}
		stopped := make(chan struct{})
		solved := make([]atomic.Bool, n)
		var count int
		all := Ordered(workers, n,
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
					t.Errorf("workers=%d: reduced %d at position %d", workers, r, count)
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
			t.Errorf("workers=%d: reduced %d (all=%v), want %d", workers, count, all, stopAt+1)
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
				t.Errorf("workers=%d: index %d solved, past the stop at %d and the workers in flight", workers, i, stopAt)
			}
		}
		if discarded > workers-1 {
			t.Errorf("workers=%d: %d solved results discarded, want at most %d", workers, discarded, workers-1)
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
	for _, workers := range []int{1, 4} {
		var calls, running atomic.Int64
		solve := panicAt(5, &calls, &running)
		reducedAfter := false
		v := recovered(func() {
			Ordered(workers, n, solve, func(r int) bool {
				reducedAfter = reducedAfter || r > 5
				return true
			})
		})
		if v != "boom at 5" {
			t.Fatalf("workers=%d: recovered %v, want the panic's value", workers, v)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("workers=%d: %d solves still running after Ordered panicked", workers, r)
		}
		if c := calls.Load(); c >= n {
			t.Errorf("workers=%d: all %d indices started despite the panic", workers, c)
		}
		if reducedAfter {
			t.Errorf("workers=%d: a result after the panicking index was reduced", workers)
		}

		calls.Store(0)
		v = recovered(func() {
			Ordered(workers, n, func(i int) int { calls.Add(1); return i }, func(r int) bool {
				if r == 7 {
					panic("reduce failed")
				}
				return true
			})
		})
		if v != "reduce failed" {
			t.Fatalf("workers=%d: recovered %v from a panicking reduce", workers, v)
		}
		if c := calls.Load(); c >= n {
			t.Errorf("workers=%d: all %d indices solved despite the panic in reduce", workers, c)
		}
	}
}
