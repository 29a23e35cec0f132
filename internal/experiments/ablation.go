package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/modelcache"
)

// AblationRow compares Jupiter under different failure estimators
// (DESIGN.md §6): the interval forecast (the framework's default), the
// stationary occupancy, and the paper's raw one-step Equation 14.
type AblationRow struct {
	Mode         string
	Cost         market.Money
	Availability float64
	OutOfBid     int
}

// AblationEstimators replays the lock service under each estimator
// mode with a 6-hour interval, where the modes differ most.
func (e Env) AblationEstimators() ([]AblationRow, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	if e.Models == nil {
		e.Models = modelcache.New()
	}
	modes := []struct {
		name string
		mode core.EstimatorMode
	}{
		{"interval", core.ModeInterval},
		{"stationary", core.ModeStationary},
		{"one-step", core.ModeOneStep},
	}
	var rows []AblationRow
	for _, m := range modes {
		j := core.New()
		j.Mode = m.mode
		res, err := e.replayOne(set, LockSpec(), j, 6)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", m.name, err)
		}
		rows = append(rows, AblationRow{
			Mode:         m.name,
			Cost:         res.Cost,
			Availability: res.Availability,
			OutOfBid:     res.OutOfBid,
		})
	}
	return rows, nil
}

// AdaptiveRow compares fixed bidding intervals against the adaptive
// interval extension (paper §5.5 future work).
type AdaptiveRow struct {
	Variant      string
	Cost         market.Money
	Availability float64
	Decisions    int
}

// AblationAdaptiveInterval replays the lock service under fixed 1h, 6h,
// and 12h intervals and under the adaptive chooser.
func (e Env) AblationAdaptiveInterval() ([]AdaptiveRow, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	if e.Models == nil {
		e.Models = modelcache.New()
	}
	var rows []AdaptiveRow
	for _, hours := range []int64{1, 6, 12} {
		res, err := e.replayOne(set, LockSpec(), core.New(), hours)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AdaptiveRow{
			Variant:      fmt.Sprintf("fixed-%dh", hours),
			Cost:         res.Cost,
			Availability: res.Availability,
			Decisions:    res.Decisions,
		})
	}
	res, err := e.replayOne(set, LockSpec(), core.NewAdaptive(), 6)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AdaptiveRow{
		Variant:      "adaptive",
		Cost:         res.Cost,
		Availability: res.Availability,
		Decisions:    res.Decisions,
	})
	return rows, nil
}

// RefineRow compares the equalized-target Fig. 3 algorithm against the
// heterogeneous-bid refinement descent (an extension beyond the paper).
type RefineRow struct {
	Variant      string
	Cost         market.Money
	Availability float64
	OutOfBid     int
}

// AblationRefinement replays the lock service with and without the
// refinement pass at a 6-hour interval.
func (e Env) AblationRefinement() ([]RefineRow, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	if e.Models == nil {
		e.Models = modelcache.New()
	}
	variants := []func() *core.Jupiter{
		func() *core.Jupiter { return core.New() },
		func() *core.Jupiter { j := core.New(); j.Refine = true; return j },
	}
	var rows []RefineRow
	for _, mk := range variants {
		j := mk()
		res, err := e.replayOne(set, LockSpec(), j, 6)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RefineRow{
			Variant:      j.Name(),
			Cost:         res.Cost,
			Availability: res.Availability,
			OutOfBid:     res.OutOfBid,
		})
	}
	return rows, nil
}

// renderRefinement prints the refinement comparison.
func renderRefinement(rows []RefineRow) string {
	var b strings.Builder
	b.WriteString("Extension: heterogeneous-bid refinement (lock service, 6h interval)\n")
	fmt.Fprintf(&b, "%-16s %-12s %-14s %s\n", "variant", "cost", "availability", "out-of-bid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12s %-14.6f %d\n", r.Variant, r.Cost, r.Availability, r.OutOfBid)
	}
	return b.String()
}

// renderAdaptive prints the interval ablation table.
func renderAdaptive(rows []AdaptiveRow) string {
	var b strings.Builder
	b.WriteString("Extension: adaptive bidding interval (lock service)\n")
	fmt.Fprintf(&b, "%-12s %-12s %-14s %s\n", "variant", "cost", "availability", "decisions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %-14.6f %d\n", r.Variant, r.Cost, r.Availability, r.Decisions)
	}
	return b.String()
}

// renderAblation prints the estimator ablation table.
func renderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: Jupiter failure estimator (lock service, 6h interval)\n")
	fmt.Fprintf(&b, "%-12s %-12s %-14s %s\n", "estimator", "cost", "availability", "out-of-bid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %-14.6f %d\n", r.Mode, r.Cost, r.Availability, r.OutOfBid)
	}
	return b.String()
}
