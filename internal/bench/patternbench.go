package bench

import (
	"fmt"
	"io"
	"time"

	"flownet/internal/pattern"
	"flownet/internal/tin"
)

// PatternBenchOptions control the Table 9–11 measurements.
type PatternBenchOptions struct {
	// Patterns to evaluate; nil means the full catalogue (P1/RP1 are
	// skipped automatically when WithChains is false, matching the paper,
	// which could only precompute the chain table on Prosper Loans).
	Patterns []*pattern.Pattern
	// WithChains precomputes the C2 chain table in addition to L2/L3.
	WithChains bool
	// MaxInstances truncates each pattern search (the paper cut P4/P6 off
	// at 3000 instances on Bitcoin). 0 = exhaustive.
	MaxInstances int64
	// Workers bounds the per-instance flow worker pool of both searchers
	// (0 = GOMAXPROCS, 1 = sequential); see pattern.Options.Workers.
	// Results are identical for every worker count.
	Workers int
}

// PatternRow is one row of Tables 9–11.
type PatternRow struct {
	Pattern   string
	Instances int64
	AvgFlow   float64
	GB        time.Duration
	PB        time.Duration
	Truncated bool
	// AgreementOK records that GB and PB returned identical instance
	// counts and total flows (only checked on exhaustive runs).
	AgreementOK bool
}

// PatternReport is the Table 9–11 content plus the one-off precomputation
// cost that PB amortizes.
type PatternReport struct {
	Rows       []PatternRow
	Precompute time.Duration
	TableRows  int // total rows across precomputed tables
}

// RunPatternBench times GB vs PB for each pattern on the network,
// reproducing the layout of Tables 9–11. Precomputation is timed once and
// reported separately, as the paper treats the tables as offline artifacts.
func RunPatternBench(n *tin.Network, opts PatternBenchOptions) (PatternReport, error) {
	pats := opts.Patterns
	if pats == nil {
		for _, p := range pattern.Catalogue {
			if !opts.WithChains && (p == pattern.P1 || p == pattern.RP1) {
				continue
			}
			pats = append(pats, p)
		}
	}
	var rep PatternReport
	t0 := time.Now()
	tables := pattern.Precompute(n, opts.WithChains)
	rep.Precompute = time.Since(t0)
	rep.TableRows = len(tables.L2.Rows) + len(tables.L3.Rows)
	if tables.C2 != nil {
		rep.TableRows += len(tables.C2.Rows)
	}

	for _, p := range pats {
		sopts := pattern.Options{MaxInstances: opts.MaxInstances, Engine: paperEngine, Workers: opts.Workers}

		t0 = time.Now()
		gb, err := pattern.SearchGB(n, p, sopts)
		if err != nil {
			return rep, fmt.Errorf("bench: GB %s: %w", p.Name, err)
		}
		dGB := time.Since(t0)

		t0 = time.Now()
		pb, err := pattern.SearchPB(n, tables, p, sopts)
		if err != nil {
			return rep, fmt.Errorf("bench: PB %s: %w", p.Name, err)
		}
		dPB := time.Since(t0)

		row := PatternRow{
			Pattern:   p.Name,
			Instances: pb.Instances,
			AvgFlow:   pb.AvgFlow(),
			GB:        dGB,
			PB:        dPB,
			Truncated: gb.Truncated || pb.Truncated,
		}
		if !row.Truncated {
			row.AgreementOK = gb.Instances == pb.Instances &&
				relErr(gb.TotalFlow, pb.TotalFlow) <= 1e-6
		} else {
			row.AgreementOK = true // orders differ under truncation
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Print renders the report in the layout of Tables 9–11.
func (r PatternReport) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s  (precompute: %s ms, %d table rows)\n",
		title, fmtDuration(r.Precompute), r.TableRows)
	fmt.Fprintf(w, "%-8s %12s %14s %14s %14s\n", "Pattern", "Instances", "Avg flow", "GB", "PB")
	for _, row := range r.Rows {
		name := row.Pattern
		if row.Truncated {
			name += "*"
		}
		warn := ""
		if !row.AgreementOK {
			warn = "  GB/PB MISMATCH"
		}
		fmt.Fprintf(w, "%-8s %12d %14.2f %14s %14s%s\n",
			name, row.Instances, row.AvgFlow, fmtDuration(row.GB), fmtDuration(row.PB), warn)
	}
}
