package main

import (
	"context"
	"os"
	"testing"
)

// TestSmokeEveryWorkload runs each workload end to end — real flownetd,
// set-up, a one-second measured phase, the gate, the traced passes and the
// probes — on a 300-vertex corpus, and requires a complete set of metrics
// with nothing failed and nothing wrong.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots flownetd; skipped with -short")
	}
	e, err := newEnv("")
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			m, err := runWorkload(context.Background(), e, runConfig{Workload: wl, Seed: 11, Seconds: 1, Trace: true, Small: true, Setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.complete(endToEnd, m.E2E); err != nil {
				t.Error(err)
			}
			if err := m.complete(perLayer, m.Layer); err != nil {
				t.Error(err)
			}
			for _, v := range m.Violations {
				t.Error("violation:", v)
			}
			if m.Failed != 0 || m.Attempted == 0 {
				t.Errorf("%d of %d operations failed", m.Failed, m.Attempted)
			}
			for _, s := range endToEnd {
				if m.E2E[s.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", s.Name, m.E2E[s.Name].Value)
				}
			}
			if _, err := os.Stat(e.outPath("trace-" + wl.Name + ".json")); err != nil {
				t.Error("no trace file:", err)
			}
		})
	}
}
