// Command tracegen generates calibrated synthetic spot-price traces
// (the repository's substitute for the paper's 2014 AWS price history)
// and writes them as CSV or the columnar binary format.
//
// Usage:
//
//	tracegen [-type m1.small|m3.large] [-types a,b,c] [-weeks N] [-seed N] [-zones a,b,c] [-format csv|colbin] [-o file]
//	tracegen convert -in file [-format csv|colbin] [-type t] [-types a,b,c] [-weeks N] [-lenient] [-o file]
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
// The "convert" subcommand rewrites an existing trace file between the
// two formats, detecting the input format from its bytes. A binary
// input is self-describing; a CSV input is read against -type, -types,
// and -weeks (the span CSV rows cannot declare themselves).
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
	"strings"

	"repro/internal/market"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "workload" {
		if err := runWorkload(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		if err := runConvert(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen: convert:", err)
			os.Exit(1)
		}
		return
	}

	itype := flag.String("type", "m1.small", "base instance type (any cataloged type, e.g. m1.small, m3.large)")
	types := flag.String("types", "", "comma-separated extra instance types, one correlated pool per (zone, type)")
	weeks := flag.Int64("weeks", 13, "trace length in weeks")
	seed := flag.Uint64("seed", 2014, "generator seed")
	zones := flag.String("zones", "", "comma-separated zones (default: the 17 experiment zones)")
	format := flag.String("format", "csv", "output format: csv or colbin (columnar binary)")
	out := flag.String("o", "-", "output file ('-' = stdout)")
	flag.Parse()

	if err := run(*itype, *types, *weeks, *seed, *zones, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// openOut resolves the -o flag ('-' = stdout).
func openOut(out string) (io.Writer, func() error, error) {
	if out == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(itype, types string, weeks int64, seed uint64, zones, format, out string) error {
	if weeks < 1 {
		return fmt.Errorf("-weeks %d: want at least 1 week of trace", weeks)
	}
	it := market.InstanceType(itype)
	if _, err := market.Shape(it); err != nil {
		return fmt.Errorf("unknown instance type %q", itype)
	}
	extra, err := market.ParseTypes(types)
	if err != nil {
		return err
	}
	zs := market.ExperimentZones()
	if zones != "" {
		zs = strings.Split(zones, ",")
	}
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: it, Types: extra, Zones: zs,
		Start: 0, End: weeks * 7 * 24 * 60,
	})
	if err != nil {
		return err
	}
	w, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	if err := writeSet(w, set, format); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

// writeSet renders a trace set in one of the two supported formats.
func writeSet(w io.Writer, set *trace.Set, format string) error {
	switch format {
	case "csv":
		return set.WriteCSV(w)
	case "colbin":
		return colbin.Write(w, set)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// runConvert is the "convert" subcommand: rewrite a trace file between
// CSV and the columnar binary format. The input format is detected from
// the file's bytes.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("tracegen convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (required); format auto-detected")
	format := fs.String("format", "colbin", "output format: csv or colbin")
	itype := fs.String("type", "m1.small", "base instance type of a CSV input (self-describing inputs carry their own)")
	types := fs.String("types", "", "comma-separated extra instance types to admit from a CSV input")
	weeks := fs.Int64("weeks", 13, "span of a CSV input in weeks (CSV rows cannot declare their own span)")
	lenient := fs.Bool("lenient", false, "quarantine malformed input rows instead of failing the read")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	it := market.InstanceType(*itype)
	if _, err := market.Shape(it); err != nil {
		return fmt.Errorf("unknown instance type %q", *itype)
	}
	extra, err := market.ParseTypes(*types)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	mode := trace.Strict
	if *lenient {
		mode = trace.Lenient
	}
	set, report, err := colbin.ReadAny(f, it, extra, 0, *weeks*7*24*60, mode)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, report.Summary("tracegen: convert", "input"))
	w, closeOut, err := openOut(*out)
	if err != nil {
		return err
	}
	if err := writeSet(w, set, *format); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

// runWorkload is the "workload" subcommand: a synthetic request-rate
// trace in the minute,rps CSV layout of internal/workload.
func runWorkload(args []string) error {
	fs := flag.NewFlagSet("tracegen workload", flag.ExitOnError)
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
	w, closeOut, err := openOut(*out)
	if err != nil {
		return err
	}
	if err := wl.WriteCSV(w); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}
