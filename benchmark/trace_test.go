package main

import "testing"

func TestSelfTimeIsSpanMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Op: "tin.extract", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Op: "core.presim", StartNs: 40, EndNs: 90},
		{ID: 3, Parent: 2, Op: "lp", StartNs: 50, EndNs: 80},
		// A second root whose children overlap each other and overrun it:
		// the overlap counts once, the overrun not at all.
		{ID: 4, Parent: -1, Op: "op", StartNs: 200, EndNs: 300},
		{ID: 5, Parent: 4, Op: "a", StartNs: 210, EndNs: 260},
		{ID: 6, Parent: 4, Op: "b", StartNs: 240, EndNs: 320},
	}
	want := []int64{20, 30, 20, 30, 10, 50, 80}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d ns, want %d", i, spans[i].Op, got[i], want[i])
		}
	}
	tot := layerTotals(spans)
	if tot["op"].Spans != 2 || tot["op"].SelfNs != 30 {
		t.Errorf("layer totals for op: %+v", tot["op"])
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "y")) // must not panic

	tr := newTracer()
	a := tr.begin("bench", "op")
	b := tr.begin("tin", "tin.extract")
	tr.end(b)
	c := tr.begin("core", "core.presim")
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Fatalf("wrong nesting: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}
