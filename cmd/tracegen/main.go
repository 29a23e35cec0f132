// Command tracegen generates calibrated synthetic spot-price traces
// (the repository's substitute for the paper's 2014 AWS price history)
// and writes them as CSV or the columnar binary format.
//
// Usage:
//
//	tracegen [-type m1.small|m3.large] [-types a,b,c] [-weeks N] [-seed N] [-zones a,b,c] [-format csv|colbin] [-o file]
//	tracegen -trace file [-type t] [-types a,b,c] [-weeks N] [-lenient-traces] [-format csv|colbin] [-o file]
//	tracegen workload [-weeks N] [-seed N] [-o file]
//
// -types adds correlated sibling pools: each listed type gets its own
// price column per zone, sharing the zone's demand shocks (level-walk
// timing and spikes) with per-type level jitter, rendered on the
// type's own price ladder. Every CSV row names its type in the second
// column; the base type's rows are byte-identical to a run without
// -types.
//
// -format colbin writes the columnar binary trace format
// (internal/trace/colbin): delta-encoded minute and price columns per
// pool behind a pool directory, typically ~4x smaller than CSV and
// decoded by cmd/replay without per-row parsing — the fast path for
// large sweeps.
//
// -trace rewrites an existing trace file instead of generating one,
// reading it the way cmd/replay, cmd/experiments and cmd/analyze do:
// the format is detected from its bytes, a binary input is
// self-describing, and a CSV input is read against -type, -types and
// -weeks (the span CSV rows cannot declare themselves). -seed and
// -zones shape a generated market only, so they do not combine with it.
//
// The "workload" subcommand generates a synthetic request-rate trace
// instead — a diurnal sinusoid overlaid with seeded flash crowds — in
// the "minute,rps" CSV layout that cmd/replay's -workload flag reads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"
)

func main() {
	// -h has printed the usage it asked for.
	if err := run(os.Args[1:]); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses the command line and writes the trace it asks for.
func run(args []string) error {
	if len(args) > 0 && args[0] == "workload" {
		return runWorkload(args[1:])
	}
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	itype := fs.String("type", "m1.small", "base instance type (any cataloged type, e.g. m1.small, m3.large)")
	types := fs.String("types", "", "comma-separated extra instance types, one correlated pool per (zone, type)")
	weeks := fs.Int64("weeks", 13, "trace length in weeks (of a CSV -trace: its span, which CSV rows cannot declare)")
	seed := fs.Uint64("seed", 2014, "generator seed")
	zones := fs.String("zones", "", "comma-separated zones (default: the 17 experiment zones)")
	traceFile := fs.String("trace", "", "rewrite this trace file, CSV or colbin (detected from its bytes), instead of generating one")
	lenient := fs.Bool("lenient-traces", false, "quarantine malformed -trace rows instead of failing the read (default: strict, first bad row is an error)")
	format := fs.String("format", "csv", "output format: csv or colbin (columnar binary)")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *weeks < 1 {
		return fmt.Errorf("-weeks %d: want at least 1 week of trace", *weeks)
	}
	if *format != "csv" && *format != "colbin" {
		return fmt.Errorf("-format %q: want csv or colbin", *format)
	}
	it, err := market.ParseType(*itype)
	if err != nil {
		return fmt.Errorf("-type: %w", err)
	}
	extra, err := experiments.ParseTypes(*types, it)
	if err != nil {
		return err
	}
	end := *weeks * 7 * 24 * 60
	var set *trace.Set
	if *traceFile != "" {
		if err := experiments.GeneratorFlagsWithTrace(fs); err != nil {
			return err
		}
		set, _, err = experiments.ReadTrace("tracegen", *traceFile, it, extra, end, *lenient)
	} else {
		zs, zerr := experiments.ParseList("zones", *zones, market.ParseZone)
		if zerr != nil {
			return zerr
		}
		if len(zs) == 0 {
			zs = market.ExperimentZones()
		}
		set, err = trace.Generate(trace.GenConfig{Seed: *seed, Type: it, Types: extra, Zones: zs, Start: 0, End: end})
	}
	if err != nil {
		return err
	}
	return writeOut(*out, func(w io.Writer) error {
		if *format == "colbin" {
			return colbin.Write(w, set)
		}
		return set.WriteCSV(w)
	})
}

// writeOut writes to the -o file ('-' = stdout), which it closes.
func writeOut(out string, write func(io.Writer) error) error {
	if out == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload is the "workload" subcommand: a synthetic request-rate
// trace in the minute,rps CSV layout of internal/workload.
func runWorkload(args []string) error {
	fs := flag.NewFlagSet("tracegen workload", flag.ContinueOnError)
	weeks := fs.Int64("weeks", 1, "workload length in weeks")
	seed := fs.Uint64("seed", 2014, "generator seed")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workload.Generate(workload.GenConfig{Seed: *seed, End: *weeks * 7 * 24 * 60})
	if err != nil {
		return err
	}
	return writeOut(*out, wl.WriteCSV)
}
