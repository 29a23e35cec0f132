package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// runAttribute renders cost/downtime attribution tables. The input is
// either an attribution document (replay -attrib-out, experiments
// -attrib-out, tournament -attrib-out) or a raw event trace (-events-out),
// which is folded through a fresh ledger on the spot.
func runAttribute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attribute", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the attribution document as JSON instead of tables")
	end := fs.Int64("end", -1, "with an event-trace input, close the run at this minute (-1 = the last event's minute)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: analyze attribute [flags] attrib.json|events.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one attribution or event-trace file, got %d args", fs.NArg())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	var doc provenance.Doc
	if jerr := json.Unmarshal(data, &doc); jerr == nil && doc.Schema == provenance.AttribSchema {
		if doc.Version > provenance.AttribVersion {
			return fmt.Errorf("attribution version %d newer than supported %d", doc.Version, provenance.AttribVersion)
		}
	} else {
		doc, err = attributeTrace(bytes.NewReader(data), *end)
		if err != nil {
			return err
		}
	}

	if *jsonOut {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(b))
		return err
	}
	for i, run := range doc.Runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s ==\n", docCellLabel(run))
		if err := provenance.RenderAttribution(out, run.Attribution); err != nil {
			return err
		}
		if wc := run.WorstCause(); wc != "" {
			fmt.Fprintf(out, "worst downtime cause: %s\n", wc)
		}
	}
	return nil
}

// attributeTrace replays an event trace through a fresh ledger,
// producing a one-run document stamped from the trace header.
func attributeTrace(r io.Reader, end int64) (provenance.Doc, error) {
	tr, err := telemetry.OpenTrace(r)
	if err != nil {
		return provenance.Doc{}, fmt.Errorf("input is neither an attribution document nor an event trace: %w", err)
	}
	led := provenance.NewLedger()
	last := int64(0)
	for {
		te, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return provenance.Doc{}, err
		}
		e, err := te.Event()
		if err != nil {
			return provenance.Doc{}, err
		}
		engine.Dispatch(led, e)
		if e.Minute > last {
			last = e.Minute
		}
	}
	if end < 0 {
		end = last
	}
	led.CloseRun(end)

	meta := tr.Header().Meta
	cell := provenance.DocCell{
		Strategy:    meta["strategy"],
		Scenario:    meta["chaos"],
		Service:     meta["service"],
		Interval:    meta["interval"],
		Attribution: led.Attribution(),
	}
	if s, err := strconv.ParseUint(meta["seed"], 10, 64); err == nil {
		cell.Seed = s
	}
	return provenance.NewDoc([]provenance.DocCell{cell}), nil
}

// docCellLabel names one run of an attribution document.
func docCellLabel(c provenance.DocCell) string {
	label := ""
	add := func(k, v string) {
		if v == "" {
			return
		}
		if label != "" {
			label += ", "
		}
		label += k + " " + v
	}
	add("strategy", c.Strategy)
	add("scenario", c.Scenario)
	add("service", c.Service)
	add("interval", c.Interval)
	if c.Seed != 0 {
		add("seed", strconv.FormatUint(c.Seed, 10))
	}
	if label == "" {
		return "run"
	}
	return label
}
