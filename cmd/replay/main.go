// Command replay runs a bidding strategy over a spot-price trace and
// reports cost and availability — one cell of the paper's Figures 6–9
// at a time, or a sweep of intervals in one go.
//
// Usage:
//
//	replay [-strategy spec] [-service lock|storage] [-interval H[,H...]]
//	       [-weeks N] [-train N] [-seed N] [-j N] [-model-stats]
//	       [-types a,b,c] [-min-vcpu N] [-min-mem G]
//	       [-trace file] [-lenient-traces] [-workload file.csv] [-series file.csv]
//	       [-chaos scenario] [-chaos-seed N]
//	       [-events-out file.jsonl] [-manifest file.json [-spans-sample N]]
//
// -strategy takes a strategy spec, the same strings "experiments
// tournament -strategies" takes: jupiter, baseline, "extra(2, 0.2)",
// jupiter-refine, jupiter-adaptive, feedback, "portfolio(0.4)",
// checkpoint, ... ("experiments tournament -list" prints every family
// of the one strategy table, internal/experiments.Families). Any of
// them can be replayed and attributed ("analyze attribute") one cell
// at a time, and the Jupiter family's decisions traced (-spans-sample)
// and explained ("analyze explain").
//
// -types widens the market into heterogeneous (zone × instance type)
// pools: each listed type adds one correlated pool per zone (synthetic
// runs) or admits that type's rows from the trace file, and pool-aware
// strategies bid across the whole portfolio with capacity-weighted
// quorums. -min-vcpu / -min-mem drop every pool whose type is smaller
// from the market before it is replayed, so no strategy bids there; a
// shape no pool offers is an error before any replay.
//
// -workload arms traffic-driven autoscaling from a request-rate CSV
// ("minute,rps", see cmd/tracegen workload): between interval
// boundaries the group gradually grows toward the load target
// (charging each new member its view-change/startup delay before it
// counts toward quorum) and drains surplus one member at a time, each
// detach re-verified against the quorum floor and the Eq. 10
// availability bound. A flat workload — or none — reproduces the
// paper's fixed-n runs byte-identically.
//
// Without -trace, a synthetic trace set is generated from the seed.
// A trace file's format is detected from its bytes: the columnar
// binary format (cmd/tracegen -format colbin, also from a -trace file)
// or CSV. A binary trace is self-describing, so its base instance type
// must match the service's and its span must cover -train + -weeks; CSV
// is filtered against the requested types and span.
// With several comma-separated intervals, the cells replay on a worker
// pool of -j goroutines and a summary table is printed; a single
// interval keeps the detailed report.
//
// The market, scale and output flags are the shared set of
// internal/experiments.Flags — cmd/experiments takes the same ones, and
// every record below is written by the one experiments.Sink.
//
// Telemetry: -events-out writes the run's event history as versioned
// JSONL (see `analyze diff`), one cell after another, longest
// -interval first (the order the cells are dispatched in). The trace
// names the cell that trained each price model the cells share, so with
// it the cells replay one at a time and the file is the same bytes at
// any -j. -manifest writes the run's one record: config, seed, wall
// time, the rows a lenient read quarantined, and one record per
// -interval cell with its result and its cost/downtime attribution —
// every billed cent and downtime minute in one (pool, cause) cell
// (render with "analyze attribute"). "-" sends an output to stdout, and
// several may share it.
//
// Provenance: -spans-sample N puts every Nth decision's provenance
// spans — the candidate groups considered, the dominance rule that
// rejected alternatives, the chosen bids and their Eq. 10 margin — into
// the cell's manifest record (inspect with "analyze explain
// manifest.json"). It needs -manifest; 0, the default, records none.
// See DESIGN.md §2.14.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/strategy"
)

// options carries the parsed command line: the shared flag set plus
// replay's own.
type options struct {
	experiments.Flags
	strategy  string
	service   string
	intervals string
	series    string
}

func main() {
	var o options
	o.Register(flag.CommandLine, experiments.DefaultEnv())
	flag.StringVar(&o.strategy, "strategy", "jupiter", "strategy spec: jupiter, baseline, \"extra(2, 0.2)\", feedback, ... (one of "+strings.Join(experiments.Names(), ", ")+")")
	flag.StringVar(&o.service, "service", "lock", "lock or storage")
	flag.StringVar(&o.intervals, "interval", "1", "bidding interval in hours; comma-separate several to sweep them")
	flag.StringVar(&o.Workload, "workload", "", "request-rate CSV (minute,rps): autoscale the group to the traffic between interval boundaries")
	flag.StringVar(&o.series, "series", "", "write per-interval downtime series CSV to this file ('-' = stdout); single interval only")
	flag.BoolVar(&o.Lenient, "lenient-traces", false, "quarantine malformed trace rows instead of failing the read (default: strict, first bad row is an error)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// parseHours parses one -interval entry: a positive whole number of
// hours.
func parseHours(s string) (int64, error) {
	h, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a whole number of hours")
	}
	if h <= 0 {
		return 0, fmt.Errorf("not positive (want hours >= 1)")
	}
	return h, nil
}

func run(o options) error {
	var spec strategy.ServiceSpec
	switch o.service {
	case "lock":
		spec = experiments.LockSpec()
	case "storage":
		spec = experiments.StorageSpec()
	default:
		return fmt.Errorf("unknown service %q", o.service)
	}
	// Strategies may cache model state, so each replay cell builds its
	// own instance.
	build, err := experiments.Build(o.strategy)
	if err != nil {
		return err
	}
	intervals, err := experiments.ParseList("interval", o.intervals, parseHours)
	if err != nil {
		return err
	}
	if len(intervals) == 0 {
		return fmt.Errorf("-interval: empty list (want positive hours, e.g. -interval 1,3,6)")
	}
	if len(intervals) > 1 && o.series != "" {
		return fmt.Errorf("-series needs a single -interval")
	}

	// The strategy key is the spec as typed; replay's headers have always
	// carried the trace key, set or not, and the golden hash pins it.
	env, sink, err := o.Open("replay", spec,
		"strategy", o.strategy, "service", o.service, "interval", o.intervals, "trace", o.Trace)
	if err != nil {
		return err
	}
	results, err := env.ReplayIntervals(spec, build, intervals)
	if err == nil {
		err = report(results, spec, o.service, intervals, o.series)
	}
	return sink.Close(err)
}

// report prints one cell in detail, or a sweep as a table.
func report(results []*replay.Result, spec strategy.ServiceSpec, service string, intervals []int64, seriesOut string) error {
	if len(results) > 1 {
		fmt.Printf("strategy %s, service %s (%d nodes base, m=%d)\n", results[0].Strategy, service, spec.BaseNodes, spec.DataShards)
		fmt.Printf("%8s  %14s  %12s  %10s  %9s  %8s\n", "interval", "cost", "availability", "decisions", "out-of-bid", "max-grp")
		for i, res := range results {
			fmt.Printf("%7dh  %14s  %12.6f  %10d  %9d  %8d\n",
				intervals[i], res.Cost, res.Availability, res.Decisions, res.OutOfBid, res.MaxGroupSize)
		}
		return nil
	}
	res, interval := results[0], intervals[0]
	fmt.Printf("strategy:         %s\n", res.Strategy)
	fmt.Printf("service:          %s (%d nodes base, m=%d, quorum %d-of-n)\n",
		service, spec.BaseNodes, spec.DataShards, spec.QuorumSize(spec.BaseNodes))
	fmt.Printf("interval:         %dh\n", interval)
	fmt.Printf("cost:             %s\n", res.Cost)
	fmt.Printf("availability:     %.6f (%d of %d minutes down)\n", res.Availability, res.DownMinutes, res.TotalMinutes)
	fmt.Printf("target avail:     %.7f\n", spec.TargetAvailability())
	fmt.Printf("decisions:        %d\n", res.Decisions)
	fmt.Printf("spot launches:    %d (out-of-bid terminations %d, failed requests %d)\n",
		res.SpotLaunch, res.OutOfBid, res.FailedRequests)
	fmt.Printf("on-demand:        %d launches\n", res.OnDemandLaunch)
	fmt.Printf("group size:       mean %.2f, max %d\n", res.MeanGroupSize, res.MaxGroupSize)
	if seriesOut == "" {
		return nil
	}
	f := os.Stdout
	if seriesOut != "-" {
		var err error
		if f, err = os.Create(seriesOut); err != nil {
			return err
		}
	}
	// The buffer keeps the first write error and Flush returns it, so a
	// full disk fails the run instead of leaving a truncated CSV.
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "start_minute,interval_minutes,group_size,down_minutes")
	for _, row := range res.Series {
		fmt.Fprintf(w, "%d,%d,%d,%d\n", row.StartMinute, row.IntervalMinutes, row.GroupSize, row.DownMinutes)
	}
	err := w.Flush()
	if f != os.Stdout {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("-series %s: %w", seriesOut, err)
	}
	return nil
}
