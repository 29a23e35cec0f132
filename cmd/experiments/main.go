// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic market. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	experiments [-run all|table1|fig1|fig4|fig5|fig6|fig7|fig8|fig9|headline|example3|ablation|adaptive|refine|weighted]
//	            [-csv file] [-seed N] [-weeks N] [-train N] [-j N] [-model-stats]
//	            [-types a,b,c] [-min-vcpu N] [-min-mem G]
//	            [-trace file]
//	            [-chaos scenario] [-chaos-seed N]
//	            [-events-out file.jsonl] [-manifest file.json] [-debug-addr host:port]
//	            [-spans-out file.jsonl] [-spans-sample N] [-attrib-out file.json]
//	experiments tournament [-strategies specs | -roster file] [-scenarios names]
//	            [-seeds a,b,c] [-weeks N] [-train N] [-interval H] [-epsilon F] [-j N]
//	            [-autoscale] [-json file] [-manifest file] [-list]
//	            [-spans-out file.jsonl] [-spans-sample N] [-attrib-out file.json]
//
// The tournament subcommand runs the strategy arena: every registered
// strategy of the roster replays under every chaos scenario and seed,
// and a leaderboard ranks them by availability bounds met, then mean
// cost (see DESIGN.md §2.7). With -autoscale, every cell and the
// clean baseline replay under a per-seed synthetic request-rate trace
// (diurnal sinusoid plus flash crowds), so strategies are judged while
// their fleets resize gradually (DESIGN.md §2.9).
//
// Everything from -seed down is the shared flag set of
// internal/experiments.Flags — cmd/replay takes the same flags, the
// tournament the subset it lists — and every record is written by the
// one experiments.Sink, cells in grid order whatever -j is. A -trace
// file (colbin or CSV, detected from its bytes; CSV rows are filtered
// against the lock service's base type) replaces the synthetic market;
// experiments whose spec needs a different base type fail with a clear
// error.
//
// Telemetry: -events-out streams every replay cell's event history to
// one JSONL file (cells of a parallel sweep interleave; use -j 1 for a
// reproducible ordering), -manifest writes an end-of-run summary
// (config, seed, wall time, metric snapshot), and -debug-addr serves
// live /metrics and /debug/pprof while the experiments run — the
// per-cell series are kept apart by service/strategy/interval labels.
// "-" sends an output to stdout, and several may share it.
//
// Provenance: -spans-out records every replay cell's decision spans
// (why each bid was chosen; inspect with "analyze explain"), and
// -attrib-out writes the per-cell cost/downtime attribution ledger
// (render with "analyze attribute"). See DESIGN.md §2.8.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

// options carries the parsed command line: the shared flag set plus
// the figure selection.
type options struct {
	experiments.Flags
	run string
	csv string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tournament" {
		if err := runTournament(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: tournament:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	o.Register(flag.CommandLine, experiments.DefaultEnv())
	flag.StringVar(&o.run, "run", "all", "experiment to run: all, table1, fig1, fig4, fig5, fig6, fig7, fig8, fig9, headline, example3, ablation, adaptive, refine, weighted")
	flag.StringVar(&o.csv, "csv", "", "also write sweep rows (figs 6-9) as CSV to this file")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run opens the shared surface, prints the figures, and closes the run.
func run(o options) error {
	env, sink, err := o.Open("experiments", experiments.LockSpec(), "run", o.run)
	if err != nil {
		return err
	}
	return sink.Close(figures(env, o.run, o.csv))
}

// figures prints the selected tables and figures.
func figures(env experiments.Env, which, csvOut string) error {
	var lockRows, storageRows []experiments.SweepRow
	needLock := which == "all" || which == "fig6" || which == "fig7" || which == "headline"
	needStorage := which == "all" || which == "fig8" || which == "fig9" || which == "headline"

	if which == "all" || which == "table1" {
		fmt.Println("== Table 1 ==")
		fmt.Println(experiments.RenderTable1())
	}
	if which == "all" || which == "fig1" {
		out, err := env.RenderFig1()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 1 ==")
		fmt.Println(out)
	}
	if which == "all" || which == "fig4" {
		out, err := env.RenderFig4()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 4 ==")
		fmt.Println(out)
	}
	if which == "all" || which == "fig5" {
		out, err := env.RenderFig5()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 5 ==")
		fmt.Println(out)
	}
	if needLock {
		rows, err := env.Fig6and7()
		if err != nil {
			return err
		}
		lockRows = rows
		if which != "headline" {
			fmt.Println("== Figures 6 and 7 ==")
			fmt.Println(experiments.RenderSweep(rows, "lock"))
		}
	}
	if needStorage {
		rows, err := env.Fig8and9()
		if err != nil {
			return err
		}
		storageRows = rows
		if which != "headline" {
			fmt.Println("== Figures 8 and 9 ==")
			fmt.Println(experiments.RenderSweep(rows, "storage"))
		}
	}
	if which == "all" || which == "headline" {
		var hs []experiments.Headline
		if lockRows != nil {
			h, err := experiments.HeadlineFrom(lockRows, "lock", experiments.LockSpec().TargetAvailability())
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		if storageRows != nil {
			h, err := experiments.HeadlineFrom(storageRows, "storage", experiments.StorageSpec().TargetAvailability())
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		fmt.Println("== Headline ==")
		fmt.Println(experiments.RenderHeadline(hs))
	}
	if which == "all" || which == "example3" {
		out, err := env.RenderExample3()
		if err != nil {
			return err
		}
		fmt.Println("== Section 3 worked example ==")
		fmt.Println(out)
	}
	if csvOut != "" && (lockRows != nil || storageRows != nil) {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteSweepCSV(f, append(append([]experiments.SweepRow{}, lockRows...), storageRows...)); err != nil {
			return err
		}
		fmt.Println("wrote sweep CSV to", csvOut)
	}
	if which == "all" || which == "ablation" {
		rows, err := env.AblationEstimators()
		if err != nil {
			return err
		}
		fmt.Println("== Ablation: failure estimator ==")
		fmt.Println(experiments.RenderAblation(rows))
	}
	if which == "all" || which == "adaptive" {
		rows, err := env.AblationAdaptiveInterval()
		if err != nil {
			return err
		}
		fmt.Println("== Extension: adaptive bidding interval ==")
		fmt.Println(experiments.RenderAdaptive(rows))
	}
	if which == "all" || which == "refine" {
		rows, err := env.AblationRefinement()
		if err != nil {
			return err
		}
		fmt.Println("== Extension: heterogeneous-bid refinement ==")
		fmt.Println(experiments.RenderRefinement(rows))
	}
	if which == "all" || which == "weighted" {
		rep, err := env.WeightedVotingAnalysis()
		if err != nil {
			return err
		}
		fmt.Println("== Analysis: weighted voting (paper 4.1) ==")
		fmt.Println(experiments.RenderWeightedVoting(rep))
	}
	return nil
}
