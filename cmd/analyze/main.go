// Command analyze inspects spot-price traces the way a bidder would
// before trusting a market: per-zone price diagnostics, the
// Chapman-Kolmogorov Markov-property check, Wee-style hour-boundary
// analysis, cross-zone correlation (the failure-independence
// assumption), and suggested bids for a range of failure targets.
//
// Usage:
//
//	analyze [-trace file] [-type m1.small] [-weeks N] [-seed N] [-zones a,b,c] [-lenient-traces]
//	analyze diff a.jsonl b.jsonl
//	analyze explain [-minute M | -decision N] [-record N] [-strategy s] [-scenario c] [-seed N] manifest.json
//	analyze attribute manifest.json
//
// Without -trace a synthetic trace set is generated. A -trace file may
// be CSV (read against -type and -weeks, which CSV rows cannot declare)
// or colbin (self-describing); the format is detected from its bytes.
// -seed and -zones shape the synthetic set, so either is an error with
// -trace.
//
// The diff subcommand compares two JSONL event traces written by
// `replay -events-out` (or `experiments -events-out`): equal-seed runs
// must be reported equal — the cross-process determinism check — and
// diverging runs get a first-divergence report naming the simulated
// event where the histories fork. Exit status 1 means the traces
// differ.
//
// The explain subcommand reconstructs "why this bid at minute M" from
// the decision spans a run manifest's replay records carry (`replay`,
// `experiments` or `experiments tournament` run with `-manifest` and
// `-spans-sample N`), one record picked by its stamp or by its index in
// the manifest (`-record N`): the pools considered, the candidate group
// sizes and their feasibility, the dominance rule that rejected the
// losing candidate family, and the chosen bids with their exact Eq. 10
// availability margin.
//
// The attribute subcommand renders the cost/downtime attribution
// ledger — every billed cent and downtime minute in one (pool, cause)
// cell — for every replay cell a run manifest (`-manifest`) records.
// See DESIGN.md §2.14.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/smc"
	"repro/internal/spotstats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		equal, err := runDiff(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze diff:", err)
			os.Exit(2)
		}
		if !equal {
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := runExplain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "analyze explain:", err)
			os.Exit(2)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "attribute" {
		if err := runAttribute(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "analyze attribute:", err)
			os.Exit(2)
		}
		return
	}

	// -h has printed the usage it asked for.
	if err := run(os.Args[1:]); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// runDiff compares two event traces line by line and reports the
// first event where they diverge. Header meta differences are listed but
// never make two traces differ: runs of different configurations are
// expected to carry different provenance. It returns whether the event
// sequences are equal.
func runDiff(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: analyze diff a.jsonl b.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("want exactly two trace files, got %d", fs.NArg())
	}
	var lines [2]*bufio.Scanner
	// read decodes line n of trace i into v; it reports false at the end
	// of the file.
	read := func(i, n int, v any) (bool, error) {
		if !lines[i].Scan() {
			if err := lines[i].Err(); err != nil {
				return false, fmt.Errorf("%s: %w", fs.Arg(i), err)
			}
			return false, nil
		}
		if err := json.Unmarshal(lines[i].Bytes(), v); err != nil {
			return false, fmt.Errorf("%s: line %d: %w", fs.Arg(i), n, err)
		}
		return true, nil
	}
	var hdr [2]telemetry.TraceHeader
	for i, name := range fs.Args() {
		f, err := os.Open(name)
		if err != nil {
			return false, err
		}
		defer f.Close()
		lines[i] = bufio.NewScanner(f)
		lines[i].Buffer(nil, 16<<20)
		ok, err := read(i, 1, &hdr[i])
		switch {
		case err != nil:
			return false, err
		case !ok:
			return false, fmt.Errorf("%s: empty %s stream", name, telemetry.TraceSchema)
		case hdr[i].Schema != telemetry.TraceSchema:
			return false, fmt.Errorf("%s: not a %s stream (schema %q)", name, telemetry.TraceSchema, hdr[i].Schema)
		case hdr[i].Version > telemetry.TraceVersion:
			return false, fmt.Errorf("%s: %s version %d newer than supported %d", name, telemetry.TraceSchema, hdr[i].Version, telemetry.TraceVersion)
		}
	}
	// Both traces advance one line per step, so line n holds event n-2
	// on either side; both are read to the end for the event counts.
	var count [2]int64
	at := int64(-1) // index of the first divergent event
	var first [2]*telemetry.TraceEvent
	for n := 2; ; n++ {
		var ev [2]*telemetry.TraceEvent // nil once a trace has ended
		for i := range lines {
			e := new(telemetry.TraceEvent)
			ok, err := read(i, n, e)
			if err != nil {
				return false, err
			}
			if ok {
				ev[i] = e
				count[i]++
			}
		}
		if ev[0] == nil && ev[1] == nil {
			break
		}
		if at < 0 && (ev[0] == nil || ev[1] == nil || *ev[0] != *ev[1]) {
			at, first = int64(n-2), ev
		}
	}
	if at < 0 {
		fmt.Fprintf(out, "traces EQUAL: %d events\n", count[0])
	} else {
		fmt.Fprintf(out, "traces DIFFER: %d vs %d events, first divergence at event %d\n", count[0], count[1], at)
		for i, e := range first {
			text := []byte("(trace ended)")
			if e != nil {
				text, _ = json.Marshal(e) // strings, ints and bools: cannot fail
			}
			fmt.Fprintf(out, "  %c: %s\n", 'A'+i, text)
		}
	}
	var keys []string
	for _, h := range hdr {
		for k := range h.Meta {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		var v [2]string
		for i, h := range hdr {
			v[i] = "(absent)"
			if s, ok := h.Meta[k]; ok {
				v[i] = strconv.Quote(s)
			}
		}
		if v[0] != v[1] {
			fmt.Fprintf(out, "  header meta %q: %s vs %s\n", k, v[0], v[1])
		}
	}
	return at < 0, nil
}

// run parses the command line and prints the analysis it asks for.
func run(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	traceFile := fs.String("trace", "", "trace file, CSV or colbin (default: synthetic)")
	itype := fs.String("type", "m1.small", "instance type")
	weeks := fs.Int64("weeks", 13, "synthetic trace length in weeks")
	seed := fs.Uint64("seed", 2014, "synthetic generator seed")
	zoneList := fs.String("zones", "us-east-1a,us-west-2b,ap-northeast-1a", "comma-separated zones")
	lenient := fs.Bool("lenient-traces", false, "quarantine malformed trace rows instead of failing the read (default: strict, first bad row is an error)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := experiments.GeneratorFlagsWithTrace(fs); *traceFile != "" && err != nil {
		return err
	}
	if *traceFile == "" && *weeks < 1 {
		return fmt.Errorf("-weeks %d: want at least 1 week of synthetic market", *weeks)
	}
	it := market.InstanceType(*itype)
	zs, err := experiments.ParseList("zones", *zoneList, market.ParseZone)
	if err != nil {
		return err
	}
	if *traceFile == "" && len(zs) == 0 {
		return fmt.Errorf("-zones: empty list (want the zones of the synthetic market)")
	}
	var set *trace.Set
	if *traceFile != "" {
		set, _, err = experiments.ReadTrace("analyze", *traceFile, it, nil, *weeks*7*24*60, *lenient)
	} else {
		set, err = trace.Generate(trace.GenConfig{
			Seed: *seed, Type: it, Zones: zs,
			Start: 0, End: *weeks * 7 * 24 * 60,
		})
	}
	if err != nil {
		return err
	}

	for _, zone := range set.Zones() {
		tr := set.ByZone[zone]
		rep, err := spotstats.Analyze(tr)
		if err != nil {
			return err
		}
		fmt.Printf("== %s (%s) ==\n", zone, tr.Type)
		fmt.Printf("  span: %d minutes, %d price changes (%.2f/hour)\n",
			rep.Minutes, rep.Changes, rep.ChangesPerHour)
		fmt.Printf("  price: mean %s, max %s, on-demand %s, above-OD fraction %.4f\n",
			rep.MeanPrice, rep.MaxPrice, rep.OnDemand, rep.FractionAboveOD)
		fmt.Printf("  sojourns: %s\n", rep.SojournMinutes)
		fmt.Printf("  level occupancy:\n")
		for _, ls := range rep.LevelOccupancy {
			fmt.Printf("    %-10s %6.2f%%\n", ls.Price, 100*ls.Share)
		}

		ck, err := spotstats.ChapmanKolmogorov(tr)
		if err == nil {
			fmt.Printf("  Markov check (Chapman-Kolmogorov): %d states, mean |dev| %.4f, max |dev| %.4f\n",
				ck.States, ck.MeanAbsDiff, ck.MaxAbsDiff)
		}
		hb := spotstats.HourBoundary(tr)
		fmt.Printf("  hour-boundary change ratio: %.2f (1.0 = no hourly repricing)\n", hb.Ratio)
		if ml, mlerr := spotstats.Memorylessness(tr); mlerr == nil {
			verdict := "memoryless (plain Markov would do)"
			if ml.KS > ml.SignificanceBound {
				verdict = "NOT memoryless (semi-Markov model required)"
			}
			fmt.Printf("  sojourn KS vs exponential: %.4f (bound %.4f) -> %s\n",
				ml.KS, ml.SignificanceBound, verdict)
		}

		est := smc.NewEstimator(0)
		est.Observe(tr)
		if model, merr := est.Model(); merr == nil {
			sup := model.SupportSummary()
			fmt.Printf("  model support: %d states, %d transitions, min per-state %d, sparse(<%d) %d\n",
				sup.States, sup.TotalTransitions, sup.MinStateDepartures, smc.SparseDepartures, sup.SparseStates)
			if f, ferr := model.Stationary(); ferr == nil {
				fmt.Printf("  suggested bids (stationary, out-of-bid targets):\n")
				for _, target := range []float64{0.10, 0.05, 0.01} {
					if bid, ok := f.MinimalBid(target, 0, rep.OnDemand); ok {
						fmt.Printf("    FP <= %-5.2f -> bid %s\n", target, bid)
					} else {
						fmt.Printf("    FP <= %-5.2f -> unreachable below on-demand\n", target)
					}
				}
			}
		}
		fmt.Println()
	}

	zonesSorted := set.Zones()
	if len(zonesSorted) >= 2 {
		fmt.Println("== cross-zone hourly price correlation ==")
		for i := 0; i < len(zonesSorted); i++ {
			for j := i + 1; j < len(zonesSorted); j++ {
				r, err := spotstats.Correlation(set.ByZone[zonesSorted[i]], set.ByZone[zonesSorted[j]])
				if err != nil {
					continue
				}
				fmt.Printf("  %-18s x %-18s %+.3f\n", zonesSorted[i], zonesSorted[j], r)
			}
		}
	}
	return nil
}
