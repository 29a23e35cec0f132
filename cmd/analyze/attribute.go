package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/provenance"
)

// runAttribute renders the cost/downtime attribution table of every
// replay cell a run manifest (-manifest) records.
func runAttribute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attribute", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: analyze attribute manifest.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one manifest file, got %d args", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := experiments.ReadManifest(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if len(m.Runs) == 0 {
		return fmt.Errorf("the manifest (version %d) holds no replay records", m.Version)
	}
	for i, run := range m.Runs {
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
