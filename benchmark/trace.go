package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// This file is the benchmark's tracer. Spans are recorded from the
// benchmark's own files, around the calls into each layer (spans inside
// flownetd are a later change), held in memory, and written out when the
// run ends. A nil *tracer records nothing, so the measured phase and the
// correctness gate run the same code untraced.

// span is one timed interval. Spans of one operation share its root: the
// root's Parent is -1, every other span names the span that caused it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans on one goroutine; open spans nest as a stack.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(layer, op string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, StartNs: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span whose interval was measured elsewhere (an HTTP
// attempt reported by the client's observer) under the innermost open
// span.
func (t *tracer) add(layer, op string, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	id := t.begin(layer, op)
	t.spans[id].EndNs = int64(end.Sub(t.t0))
	t.spans[id].StartNs = t.spans[id].EndNs - int64(d)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upTo), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerTotals sums span count and self time by span name ("tin.extract").
type layerTotal struct {
	Spans  int
	SelfNs int64
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		t := out[s.Op]
		t.Spans++
		t.SelfNs += self[i]
		out[s.Op] = t
	}
	return out
}

// writeTrace writes the spans of a run's traced passes as one JSON file.
func writeTrace(path string, passes map[string][]span) error {
	b, err := json.Marshal(passes)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
