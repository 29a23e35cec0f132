package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// writeSweepCSV emits sweep rows as CSV for external plotting.
func writeSweepCSV(w io.Writer, rows []SweepRow) error {
	if _, err := fmt.Fprintln(w, "service,strategy,interval_hours,cost_usd,availability,out_of_bid,mean_group_size"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%.6f,%d,%.2f\n",
			r.Service, r.Strategy, r.IntervalHours, r.Cost.Dollars(), r.Availability, r.OutOfBid, r.MeanGroupSize); err != nil {
			return err
		}
	}
	return nil
}

// renderTable1 prints the region catalog in the paper's Table 1 shape.
func renderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %s\n", "Region", "Location", "Availability Zones")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%-16s %-12s %d\n", r.Name, r.Location, len(r.Zones))
	}
	return b.String()
}

// renderFig1 prints the price sample as minute/price rows from its start.
func renderFig1(tr *trace.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: spot price history, %s %s, 2h window [%d, %d)\n", tr.Zone, tr.Type, tr.Start, tr.End)
	fmt.Fprintf(&b, "%-10s %s\n", "minute", "price")
	for _, p := range tr.Points {
		fmt.Fprintf(&b, "%-10d %s\n", max(p.Minute, tr.Start), p.Price)
	}
	return b.String()
}

// renderFig4 prints the micro-benchmark rows.
func renderFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Fig 4: measured out-of-bid failure probability under estimated FP = 0.01\n")
	fmt.Fprintf(&b, "%-18s %-10s %-10s %-10s %s\n", "zone", "type", "bid", "target", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-10s %-10s %-10.4f %.6f\n", r.Zone, r.Type, r.Bid, r.TargetFP, r.Measured)
	}
	return b.String()
}

// renderFig5 prints the one-week cost bars.
func renderFig5(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString("Fig 5: one-week spot instance cost per strategy\n")
	fmt.Fprintf(&b, "%-10s %-14s %-12s %s\n", "service", "strategy", "cost", "availability")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-14s %-12s %.6f\n", r.Service, r.Strategy, r.Cost, r.Availability)
	}
	return b.String()
}

// renderSweep prints the Figures 6–9 matrices for one service: a cost
// table and an availability table, strategies as columns and intervals
// as rows.
func renderSweep(rows []SweepRow, service string) string {
	strategies := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Service == service && !seen[r.Strategy] {
			seen[r.Strategy] = true
			strategies = append(strategies, r.Strategy)
		}
	}
	sort.Strings(strategies)
	find := func(interval int64, strat string) (SweepRow, bool) {
		for _, r := range rows {
			if r.Service == service && r.IntervalHours == interval && r.Strategy == strat {
				return r, true
			}
		}
		return SweepRow{}, false
	}
	var b strings.Builder
	for _, table := range []struct {
		name   string
		format func(SweepRow) string
	}{
		{"cost ($)", func(r SweepRow) string { return fmt.Sprintf(" %-14.2f", r.Cost.Dollars()) }},
		{"availability", func(r SweepRow) string { return fmt.Sprintf(" %-14.6f", r.Availability) }},
	} {
		fmt.Fprintf(&b, "%s service: %s\n", service, table.name)
		fmt.Fprintf(&b, "%-10s", "interval")
		for _, s := range strategies {
			fmt.Fprintf(&b, " %-14s", s)
		}
		b.WriteString("\n")
		for _, h := range SweepIntervals {
			fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%dh", h))
			for _, s := range strategies {
				if r, ok := find(h, s); ok {
					b.WriteString(table.format(r))
				} else {
					fmt.Fprintf(&b, " %-14s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// renderHeadline prints the headline cost reductions, including the
// comparison against a reserved-instance baseline (§5.2).
func renderHeadline(hs []Headline) string {
	var b strings.Builder
	b.WriteString("Headline: Jupiter cost reduction vs on-demand baseline\n")
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-10s %-12s %s\n",
		"service", "baseline", "jupiter", "interval", "reduction", "availability (jup/base)")
	for _, h := range hs {
		fmt.Fprintf(&b, "%-10s %-14s %-14s %-10s %-12s %.6f / %.6f\n",
			h.Service, h.BaselineCost, h.JupiterBestCost,
			fmt.Sprintf("%dh", h.JupiterBestHours),
			fmt.Sprintf("%.2f%%", h.ReductionPercent),
			h.JupiterAvailability, h.BaselineAvailability)
	}
	fmt.Fprintf(&b, "vs reserved instances (%.0f%% discount, inflexible):\n", 100*ReservedDiscount)
	for _, h := range hs {
		fmt.Fprintf(&b, "%-10s reserved %-14s jupiter still %-8s cheaper\n",
			h.Service, h.ReservedCost(), fmt.Sprintf("%.2f%%", h.JupiterVsReservedPercent()))
	}
	return b.String()
}

// renderExample3 prints the §3 worked-example numbers.
func renderExample3(r Example3Result) string {
	var b strings.Builder
	b.WriteString("§3 worked example\n")
	fmt.Fprintf(&b, "5-node on-demand availability: %.10f (downtime %.1f s/month)\n",
		r.OnDemandAvailability, r.OnDemandDowntimeSec)
	fmt.Fprintf(&b, "naive spot-price bidding:      %.6f (downtime %.0f s/month)\n",
		r.NaiveAvailability, r.NaiveDowntimeSec)
	return b.String()
}
