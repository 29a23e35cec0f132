package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/strategy"
)

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
// work), replaying the lock service as one grid.
func (e Env) AblationAdaptiveInterval() ([]SweepRow, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	fixed := func() strategy.Strategy { return core.New() }
	adaptive := func() strategy.Strategy { return core.NewAdaptive() }
	return e.tabulate([]cell{
		e.cell(set, LockSpec(), fixed, 1),
		e.cell(set, LockSpec(), fixed, 6),
		e.cell(set, LockSpec(), fixed, 12),
		e.cell(set, LockSpec(), adaptive, 6),
	}, "fixed-1h", "fixed-6h", "fixed-12h", "adaptive")
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
