package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/strategy"
)

// variant is one row of a labelled-variant table — the
// adaptive-interval and refinement extensions: a Jupiter variant
// replaying the lock service at a bidding interval.
type variant struct {
	label string
	hours int64
	build strategy.Builder
}

// variants replays the lock service once per variant, as one grid; each
// row's Strategy is its variant's label.
func (e Env) variants(vs []variant) ([]SweepRow, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(vs))
	labels := make([]string, len(vs))
	for i, v := range vs {
		cells[i], labels[i] = e.cell(set, LockSpec(), v.build, v.hours), v.label
	}
	return e.tabulate(cells, labels...)
}

// AblationEstimators compares Jupiter under its failure estimators
// (DESIGN.md §2.10) — the interval forecast (the framework's default),
// the stationary occupancy, and the forecast over one minute, the
// paper's one-step Equation 14 — as one grid: every estimator at 1, 6
// and 12 h bidding intervals for both services, each row labelled like
// "storage 12h one-step".
func (e Env) AblationEstimators() ([]SweepRow, error) {
	modes := []struct {
		name string
		mode core.EstimatorMode
	}{{"interval", core.ModeInterval}, {"stationary", core.ModeStationary}, {"one-step", core.ModeOneStep}}
	var cells []cell
	var labels []string
	for _, spec := range []strategy.ServiceSpec{LockSpec(), StorageSpec()} {
		set, err := e.Traces(spec.Type)
		if err != nil {
			return nil, err
		}
		for _, h := range []int64{1, 6, 12} {
			for _, m := range modes {
				cells = append(cells, e.cell(set, spec, func() strategy.Strategy { j := core.New(); j.Mode = m.mode; return j }, h))
				labels = append(labels, fmt.Sprintf("%s %dh %s", serviceName(spec), h, m.name))
			}
		}
	}
	return e.tabulate(cells, labels...)
}

// AblationAdaptiveInterval compares fixed 1h, 6h and 12h bidding
// intervals against the adaptive interval chooser (paper §5.5 future
// work).
func (e Env) AblationAdaptiveInterval() ([]SweepRow, error) {
	fixed := func() strategy.Strategy { return core.New() }
	return e.variants([]variant{
		{"fixed-1h", 1, fixed},
		{"fixed-6h", 6, fixed},
		{"fixed-12h", 12, fixed},
		{"adaptive", 6, func() strategy.Strategy { return core.NewAdaptive() }},
	})
}

// AblationRefinement compares the equalized-target Fig. 3 algorithm
// against the heterogeneous-bid refinement descent (an extension beyond
// the paper) at a 6-hour interval.
func (e Env) AblationRefinement() ([]SweepRow, error) {
	return e.variants([]variant{
		{"Jupiter", 6, func() strategy.Strategy { return core.New() }},
		{"Jupiter+refine", 6, func() strategy.Strategy { j := core.New(); j.Refine = true; return j }},
	})
}

// variantTable renders a labelled-variant table under title: the
// variant column headed label and width wide, then cost, availability,
// and count — "out-of-bid" or "decisions".
func variantTable(title, label string, width int, count string) func([]SweepRow) string {
	return func(rows []SweepRow) string {
		var b strings.Builder
		b.WriteString(title + "\n")
		fmt.Fprintf(&b, "%-*s %-12s %-14s %s\n", width, label, "cost", "availability", count)
		for _, r := range rows {
			n := r.OutOfBid
			if count == "decisions" {
				n = r.Decisions
			}
			fmt.Fprintf(&b, "%-*s %-12s %-14.6f %d\n", width, r.Strategy, r.Cost, r.Availability, n)
		}
		return b.String()
	}
}
