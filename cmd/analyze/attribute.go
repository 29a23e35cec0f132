package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// runAttribute renders cost/downtime attribution tables: one per replay
// cell of a run manifest (-manifest), or one for a single-run event
// trace (-events-out), folded through a fresh ledger on the spot — the
// table that run's manifest record carries.
func runAttribute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attribute", flag.ContinueOnError)
	end := fs.Int64("end", -1, "with an event-trace input, close the run at this minute (-1 = the last event's minute)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: analyze attribute [flags] manifest.json|events.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one manifest or event-trace file, got %d args", fs.NArg())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var runs []experiments.Record
	if tr, terr := telemetry.OpenTrace(bytes.NewReader(data)); terr == nil {
		rec, err := attributeTrace(tr, *end)
		if err != nil {
			return err
		}
		runs = []experiments.Record{rec}
	} else {
		m, err := experiments.ReadManifest(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s is neither an event trace (%v) nor a run manifest: %w", fs.Arg(0), terr, err)
		}
		if len(m.Runs) == 0 {
			return fmt.Errorf("the manifest (version %d) holds no replay records", m.Version)
		}
		runs = m.Runs
	}
	for i, run := range runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n", stampLabel(run.Stamp))
		if err := provenance.RenderAttribution(out, run.Attribution); err != nil {
			return err
		}
		if wc := run.Attribution.WorstCause(); wc != "" {
			fmt.Fprintf(out, "worst downtime cause: %s\n", wc)
		}
	}
	return nil
}

// attributeTrace folds a single-run event trace through a fresh ledger,
// into a record stamped from the trace header. A minute going backwards
// means the trace holds several runs — a sweep's cells, one after
// another — and is an error: only the manifest keeps their records
// apart.
func attributeTrace(tr *telemetry.TraceReader, end int64) (experiments.Record, error) {
	led := provenance.NewLedger()
	last := int64(0)
	for {
		te, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return experiments.Record{}, err
		}
		e, err := te.Event()
		if err != nil {
			return experiments.Record{}, err
		}
		if e.Minute < last {
			return experiments.Record{}, fmt.Errorf("event trace line %d: minute %d after minute %d: the trace holds more than one run; the run's -manifest records each replay cell's attribution", tr.Line(), e.Minute, last)
		}
		last = e.Minute
		engine.Dispatch(led, e)
	}
	if end < 0 {
		end = last
	}
	led.CloseRun(end)

	meta := tr.Header().Meta
	rec := experiments.Record{
		Stamp: provenance.Stamp{
			Strategy: meta["strategy"], Scenario: meta["chaos"], Service: meta["service"], Interval: meta["interval"],
		},
		Attribution: led.Attribution(),
	}
	if s, err := strconv.ParseUint(meta["seed"], 10, 64); err == nil {
		rec.Seed = s
	}
	return rec, nil
}
