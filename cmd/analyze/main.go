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
//	analyze explain [-minute M | -decision N] [-strategy s] [-scenario c] [-seed N] manifest.json
//	analyze attribute [-end M] manifest.json|events.jsonl
//
// Without -trace a synthetic trace set is generated. A -trace file may
// be CSV (read against -type and -weeks, which CSV rows cannot declare)
// or colbin (self-describing); the format is detected from its bytes.
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
// `-spans-sample N`), one record picked by its stamp: the pools
// considered, the candidate group sizes and their feasibility, the
// dominance rule that rejected the losing candidate family, the refine
// descent, and the chosen bids with their exact Eq. 10 availability
// margin.
//
// The attribute subcommand renders the cost/downtime attribution
// ledger — every billed cent and downtime minute in one (pool, cause)
// cell — for every replay cell a run manifest (`-manifest`) records, or
// for the one run of an event trace (`-events-out`), folded through a
// fresh ledger into the table that run's manifest record carries. A
// trace holding several runs (a sweep's cells) is an error: the
// manifest keeps them apart. See DESIGN.md §2.8.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/market"
	"repro/internal/smc"
	"repro/internal/spotstats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
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

	traceFile := flag.String("trace", "", "trace file, CSV or colbin (default: synthetic)")
	itype := flag.String("type", "m1.small", "instance type")
	weeks := flag.Int64("weeks", 13, "synthetic trace length in weeks")
	seed := flag.Uint64("seed", 2014, "synthetic generator seed")
	zones := flag.String("zones", "us-east-1a,us-west-2b,ap-northeast-1a", "comma-separated zones")
	lenient := flag.Bool("lenient-traces", false, "quarantine malformed trace rows instead of failing the read (default: strict, first bad row is an error)")
	flag.Parse()

	if err := run(*traceFile, *itype, *weeks, *seed, *zones, *lenient); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// runDiff loads two event traces and reports their first divergence.
// It returns whether the traces are equal.
func runDiff(args []string, out *os.File) (bool, error) {
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
	fa, err := os.Open(fs.Arg(0))
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(fs.Arg(1))
	if err != nil {
		return false, err
	}
	defer fb.Close()
	d, err := telemetry.DiffTraces(fa, fb)
	if err != nil {
		return false, err
	}
	fmt.Fprint(out, d.Report())
	return d.Equal, nil
}

func run(traceFile, itype string, weeks int64, seed uint64, zoneList string, lenient bool) error {
	it := market.InstanceType(itype)
	zs := strings.Split(zoneList, ",")
	var set *trace.Set
	var err error
	if traceFile != "" {
		f, ferr := os.Open(traceFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		mode := trace.Strict
		if lenient {
			mode = trace.Lenient
		}
		var rep *trace.ReadReport
		set, rep, err = colbin.ReadAny(f, it, nil, 0, weeks*7*24*60, mode)
		fmt.Fprint(os.Stderr, rep.Summary("analyze", "trace"))
	} else {
		set, err = trace.Generate(trace.GenConfig{
			Seed: seed, Type: it, Zones: zs,
			Start: 0, End: weeks * 7 * 24 * 60,
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

		ck, err := spotstats.ChapmanKolmogorov(tr, 0)
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
			sup := model.SupportSummary(30)
			fmt.Printf("  model support: %d states, %d transitions, min per-state %d, sparse(<30) %d\n",
				sup.States, sup.TotalTransitions, sup.MinStateDepartures, sup.SparseStates)
			if f, ferr := model.Stationary(); ferr == nil {
				sugs, serr := spotstats.SuggestBids(tr, []float64{0.10, 0.05, 0.01}, f)
				if serr == nil {
					fmt.Printf("  suggested bids (stationary, out-of-bid targets):\n")
					for _, s := range sugs {
						if s.OK {
							fmt.Printf("    FP <= %-5.2f -> bid %s\n", s.TargetFP, s.Bid)
						} else {
							fmt.Printf("    FP <= %-5.2f -> unreachable below on-demand\n", s.TargetFP)
						}
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
