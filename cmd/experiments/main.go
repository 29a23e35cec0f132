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
//	            [-events-out file.jsonl] [-manifest file.json [-spans-sample N]]
//	experiments tournament [-strategies specs] [-scenarios names]
//	            [-seeds a,b,c] [-weeks N] [-train N] [-interval H] [-epsilon F] [-j N]
//	            [-autoscale] [-json file] [-manifest file [-spans-sample N]] [-list]
//
// The tournament subcommand runs the strategy arena: every strategy of
// the roster — a comma-separated -strategies list of specs, each naming
// a family of the strategy table (-list prints them), or the shipped
// arena roster — replays under every chaos scenario and seed,
// and a leaderboard ranks them by availability bounds met, then mean
// cost (see DESIGN.md §2.16). With -autoscale, every cell and the
// clean baseline replay under a per-seed synthetic request-rate trace
// (diurnal sinusoid plus flash crowds), so strategies are judged while
// their fleets resize gradually (DESIGN.md §2.13).
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
// -min-vcpu / -min-mem drop every smaller pool from the market of each
// section that replays one; fig1 and fig4 draw fixed-type markets and
// ignore them.
//
// -run names one section of the experiment index (DESIGN.md §3) or
// "all" of them, in index order; fig6 and fig7 print the same section,
// as do fig8 and fig9. An unknown name is an error, and so is -csv with
// a selection that replays no sweep.
//
// Telemetry: -events-out writes every replay cell's event history to
// one JSONL file, cell after cell, each grid's longest interval first
// (the order its cells are dispatched in). The trace names the cell
// that trained each price model the cells share, so with it the cells
// replay one at a time and the file is the same bytes at any -j.
// -manifest writes the run's one record: config, seed, wall time, the
// rows a lenient read quarantined, and one record per replay cell, in
// grid order and never merged, with its result and its cost/downtime
// attribution (render with "analyze attribute"); with it the
// tournament's leaderboard cites each missed scenario's worst cause.
// "-" sends an output to stdout, and several may share it.
//
// Provenance: -spans-sample N puts every Nth decision's provenance
// spans (why each bid was chosen) into its replay cell's manifest
// record; inspect them with "analyze explain manifest.json". It needs
// -manifest, and 0, the default, records none. See DESIGN.md §2.14.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
		exit("experiments: tournament:", runTournament(os.Args[2:]))
		return
	}
	var o options
	o.Register(flag.CommandLine, experiments.DefaultEnv())
	flag.StringVar(&o.run, "run", "all", "experiment to run: "+strings.Join(experiments.RunNames(), ", "))
	flag.StringVar(&o.csv, "csv", "", "also write the sweep rows (figs 6-9) the selection replays as CSV to this file ('-' = stdout)")
	flag.Parse()

	exit("experiments:", run(o))
}

// exit prints a failed run's error line and exits 1.
func exit(prefix string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(prefix, err))
		os.Exit(1)
	}
}

// errorLine puts the command's prefix before err — unless the
// experiments package produced err, whose text already starts with the
// command's name.
func errorLine(prefix string, err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "experiments: ") {
		return msg
	}
	return prefix + " " + msg
}

// run resolves the selection against the experiment index, opens the
// shared surface, prints the sections, and closes the run.
func run(o options) error {
	sel, err := experiments.Select(o.run, o.csv != "")
	if err != nil {
		return err
	}
	env, sink, err := o.Open("experiments", experiments.LockSpec(), "run", o.run)
	if err != nil {
		return err
	}
	return sink.Close(env.Print(os.Stdout, sel, o.csv))
}
