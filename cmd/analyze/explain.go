package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// runExplain reconstructs one decision — "why this bid at minute M" —
// from a decision-provenance spans stream (replay -spans-out,
// experiments -spans-out, experiments tournament -spans-out).
func runExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	strat := fs.String("strategy", "", "filter spans by strategy stamp")
	scenario := fs.String("scenario", "", "filter spans by chaos-scenario stamp")
	service := fs.String("service", "", "filter spans by service stamp")
	interval := fs.String("interval", "", "filter spans by interval stamp (e.g. 3h)")
	seed := fs.Uint64("seed", 0, "filter spans by seed stamp (0 = any)")
	decision := fs.Int64("decision", 0, "explain this decision sequence number (0 = pick by -minute)")
	minute := fs.Int64("minute", -1, "explain the last decision at or before this simulated minute (-1 = the run's last decision)")
	jsonOut := fs.Bool("json", false, "print the decision's raw spans as JSON instead of the report")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: analyze explain [flags] spans.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one spans file, got %d args", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, spans, err := telemetry.ReadStream[provenance.Span](f, telemetry.SpansSchema)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		// Only strategies that implement provenance.Consumer (the Jupiter
		// family) record their decisions; a rival's stream is a header.
		return fmt.Errorf("the stream holds no spans: strategy %q records no decision provenance (try analyze attribute on the run's -manifest)", hdr.Meta["strategy"])
	}

	var kept []provenance.Span
	for _, s := range spans {
		if *strat != "" && s.Strategy != *strat {
			continue
		}
		if *scenario != "" && s.Scenario != *scenario {
			continue
		}
		if *service != "" && s.Service != *service {
			continue
		}
		if *interval != "" && s.Interval != *interval {
			continue
		}
		if *seed != 0 && s.Seed != *seed {
			continue
		}
		kept = append(kept, s)
	}
	if len(kept) == 0 {
		return fmt.Errorf("no spans match the filters")
	}
	if cells := spanCells(kept); len(cells) > 1 {
		return fmt.Errorf("spans from %d runs match — narrow with -strategy/-scenario/-service/-interval/-seed:\n  %s",
			len(cells), strings.Join(cells, "\n  "))
	}

	target := pickDecision(kept, *decision, *minute)
	if target == 0 {
		if *decision > 0 {
			return fmt.Errorf("decision %d not in the stream (sampled out, or the run was shorter)", *decision)
		}
		return fmt.Errorf("no decision at or before minute %d in the stream", *minute)
	}
	var ds []provenance.Span
	for _, s := range kept {
		if s.Decision == target {
			ds = append(ds, s)
		}
	}
	if *jsonOut {
		b, err := json.MarshalIndent(ds, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(b))
		return err
	}
	renderDecision(out, ds)
	return nil
}

// spanCells lists the distinct run stamps of a span set.
func spanCells(spans []provenance.Span) []string {
	seen := map[string]bool{}
	var cells []string
	for _, s := range spans {
		c := stampLabel(spanStamp(s))
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	sort.Strings(cells)
	return cells
}

// spanStamp is the run coordinate set a span is stamped with.
func spanStamp(s provenance.Span) provenance.Stamp {
	return provenance.Stamp{Strategy: s.Strategy, Scenario: s.Scenario, Service: s.Service, Interval: s.Interval, Seed: s.Seed}
}

// stampLabel names one replay cell.
func stampLabel(s provenance.Stamp) string {
	var parts []string
	if s.Strategy != "" {
		parts = append(parts, "strategy "+s.Strategy)
	}
	if s.Scenario != "" {
		parts = append(parts, "scenario "+s.Scenario)
	}
	if s.Service != "" {
		parts = append(parts, "service "+s.Service)
	}
	if s.Interval != "" {
		parts = append(parts, "interval "+s.Interval)
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed %d", s.Seed))
	}
	if len(parts) == 0 {
		return "(unstamped run)"
	}
	return strings.Join(parts, ", ")
}

// pickDecision resolves which decision to explain: an explicit number,
// the last decision at or before a minute, or the run's last decision.
// It returns 0 when nothing qualifies.
func pickDecision(spans []provenance.Span, decision, minute int64) int64 {
	if decision > 0 {
		for _, s := range spans {
			if s.Decision == decision {
				return decision
			}
		}
		return 0
	}
	var best int64
	var bestMinute int64 = -1
	for _, s := range spans {
		if minute >= 0 && s.Minute > minute {
			continue
		}
		if s.Minute > bestMinute || (s.Minute == bestMinute && s.Decision > best) {
			best, bestMinute = s.Decision, s.Minute
		}
	}
	return best
}

// renderDecision writes the human-readable reconstruction of one
// decision's span set, in pipeline order.
func renderDecision(out io.Writer, ds []provenance.Span) {
	head := ds[0]
	fmt.Fprintf(out, "run: %s\n", stampLabel(spanStamp(head)))
	fmt.Fprintf(out, "decision %d at minute %d", head.Decision, head.Minute)
	for _, s := range ds {
		if s.Kind == provenance.SpanStage {
			fmt.Fprintf(out, " (stage %s", s.Outcome)
			if s.Detail != "" {
				fmt.Fprintf(out, ", %s", s.Detail)
			}
			fmt.Fprint(out, ")")
			break
		}
	}
	fmt.Fprintln(out)

	if pools := byKind(ds, provenance.SpanPool); len(pools) > 0 {
		fmt.Fprintln(out, "\npools considered:")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  POOL\tOUTCOME\tCURRENT")
		for _, s := range pools {
			cur := ""
			if s.Outcome == "ok" {
				cur = market.Money(s.CurMicroUSD).String()
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", s.Pool, s.Outcome, cur)
		}
		tw.Flush()
	}

	if cands := byKind(ds, provenance.SpanCandidate); len(cands) > 0 {
		fmt.Fprintln(out, "\ncandidate group sizes:")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  NODES\tOUTCOME\tFP-TARGET\tCOST-BOUND")
		for _, s := range cands {
			fpt, cost := "", ""
			if s.FPTarget > 0 {
				fpt = fmt.Sprintf("%.6g", s.FPTarget)
			}
			if s.Outcome == "feasible" || s.Outcome == "pruned" {
				cost = market.Money(s.CostMicroUSD).String()
			}
			fmt.Fprintf(tw, "  %d\t%s\t%s\t%s\n", s.Nodes, s.Outcome, fpt, cost)
		}
		tw.Flush()
	}

	for _, s := range byKind(ds, provenance.SpanDominance) {
		fmt.Fprintf(out, "\ndominance: %s family wins — base cost %s (cur %s) vs het cost %s (cur %s)\n",
			s.Outcome,
			market.Money(s.CostMicroUSD), market.Money(s.CurMicroUSD),
			market.Money(s.AltMicroUSD), market.Money(s.AltCurMicroUSD))
	}
	for _, s := range byKind(ds, provenance.SpanRefine) {
		saved := market.Money(s.AltMicroUSD - s.CostMicroUSD)
		fmt.Fprintf(out, "refine: bid sum %s -> %s (saved %s)\n",
			market.Money(s.AltMicroUSD), market.Money(s.CostMicroUSD), saved)
	}

	if bids := byKind(ds, provenance.SpanBid); len(bids) > 0 {
		fmt.Fprintln(out, "\nchosen group:")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  POOL\tBID\tCURRENT\tFP")
		for _, s := range bids {
			if s.Outcome == "on-demand" {
				fmt.Fprintf(tw, "  %s\ton-demand\t%s\t%.6g\n", s.Pool, market.Money(s.BidMicroUSD), s.FP)
				continue
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%.6g\n",
				s.Pool, market.Money(s.BidMicroUSD), market.Money(s.CurMicroUSD), s.FP)
		}
		tw.Flush()
	}

	for _, s := range byKind(ds, provenance.SpanChosen) {
		if s.Outcome == "fallback" {
			fmt.Fprintf(out, "\nchosen: fallback to all on-demand (%s)\n", s.Detail)
			continue
		}
		fmt.Fprintf(out, "\nchosen: %d nodes, planned cost %s (bids + on-demand prices)\n", s.Nodes, market.Money(s.CostMicroUSD))
		fmt.Fprintf(out, "availability %.9f vs target %.9f -> Eq. 10 margin %+.3g\n",
			s.Availability, s.Target, s.Margin)
	}
}

func byKind(ds []provenance.Span, kind string) []provenance.Span {
	var out []provenance.Span
	for _, s := range ds {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}
