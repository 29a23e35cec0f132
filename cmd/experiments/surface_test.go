package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/trace/colbin"
)

// quick is the Figures 6/7 sweep at the quick scale, seed 2014.
func quick() options {
	return options{
		Flags: experiments.Flags{Seed: 2014, Train: 6, Weeks: 1, Jobs: 2},
		run:   "fig6",
	}
}

// runCaptured runs the command in-process with a temp file standing in
// for stdout and returns what it printed.
func runCaptured(t *testing.T, o options) (string, error) {
	return captured(t, func() error { return run(o) })
}

// captured runs fn with a temp file standing in for stdout and returns
// what it printed.
func captured(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestStdoutSurvives: with the event trace and the manifest, spans and
// all, on "-", the figures still print, nothing is lost to a closed
// stream, and the manifest comes last.
func TestStdoutSurvives(t *testing.T) {
	o := quick()
	o.EventsOut, o.Manifest, o.SpansSample = "-", "-", 1
	out, err := runCaptured(t, o)
	if err != nil {
		t.Fatalf("run with two outputs on stdout: %v", err)
	}
	for _, want := range []string{`{"schema":"jupiter-events"`, "== Figures 6 and 7 =="} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %s", want)
		}
	}
	i := strings.LastIndex(out, "{\n  \"schema\": \"jupiter-manifest\"")
	if i < 0 {
		t.Fatal("stdout carries no manifest")
	}
	m, err := experiments.ReadManifest(strings.NewReader(out[i:]))
	if err != nil {
		t.Fatalf("stdout does not end with a parseable manifest: %v", err)
	}
	if m.Command != "experiments" || m.Config["run"] != "fig6" {
		t.Errorf("manifest command %q, run %q", m.Command, m.Config["run"])
	}
	if len(m.Runs) == 0 || len(m.Runs[0].Spans) == 0 {
		t.Errorf("the manifest's records carry no spans: %d records", len(m.Runs))
	}
}

// TestRecordsIdentifyTheirRun: every shared flag set away from its
// default shows in the manifest config and the event-trace header — the
// same keys cmd/replay writes, from the same function — and a default
// run carries none of the optional ones.
func TestRecordsIdentifyTheirRun(t *testing.T) {
	set, err := experiments.Env{Seed: 7, TrainWeeks: 6, ReplayWeeks: 1}.Traces(experiments.LockSpec().Type)
	if err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(t.TempDir(), "market.colbin")
	if err := os.WriteFile(traceFile, colbin.Encode(set), 0o644); err != nil {
		t.Fatal(err)
	}

	records := func(t *testing.T, o options) map[string]map[string]string {
		t.Helper()
		dir := t.TempDir()
		o.EventsOut = filepath.Join(dir, "events.jsonl")
		o.Manifest = filepath.Join(dir, "manifest.json")
		if _, err := runCaptured(t, o); err != nil {
			t.Fatal(err)
		}
		mf, err := os.Open(o.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		m, err := experiments.ReadManifest(mf)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := os.ReadFile(o.EventsOut)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := bytes.Cut(trace, []byte("\n"))
		var hdr telemetry.TraceHeader
		if err := json.Unmarshal(first, &hdr); err != nil {
			t.Fatal(err)
		}
		return map[string]map[string]string{"manifest config": m.Config, "events header": hdr.Meta}
	}

	cases := []struct {
		key, want string
		set       func(*options)
	}{
		{"chaos", "reclaim-storm", func(o *options) { o.Chaos = "reclaim-storm" }},
		{"chaos-seed", "9", func(o *options) { o.Chaos, o.ChaosSeed = "calm", 9 }},
		{"types", "m1.medium", func(o *options) { o.Types = "m1.medium" }},
		{"min-vcpu", "1", func(o *options) { o.MinVCPU = 1 }},
		{"min-mem", "1.5", func(o *options) { o.MinMem = 1.5 }},
		{"trace", traceFile, func(o *options) { o.Trace = traceFile }},
		{"seed", "7", func(o *options) { o.Seed = 7 }},
		{"train", "5", func(o *options) { o.Train = 5 }},
		{"weeks", "2", func(o *options) { o.Train, o.Weeks = 5, 2 }},
		{"spans-sample", "4", func(o *options) { o.SpansSample = 4 }},
	}
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			o := quick()
			c.set(&o)
			for name, meta := range records(t, o) {
				if meta[c.key] != c.want {
					t.Errorf("%s: %s = %q, want %q (%v)", name, c.key, meta[c.key], c.want, meta)
				}
			}
		})
	}

	for name, meta := range records(t, quick()) {
		for _, key := range []string{"chaos", "chaos-seed", "types", "min-vcpu", "min-mem", "trace", "workload", "spans-sample"} {
			if v, ok := meta[key]; ok {
				t.Errorf("default run's %s carries %s = %q", name, key, v)
			}
		}
		if meta["run"] != "fig6" || meta["seed"] != "2014" {
			t.Errorf("%s: run = %q, seed = %q", name, meta["run"], meta["seed"])
		}
	}
}

// TestUnknownRunIsAnError: -run is checked against the experiment
// index before anything runs; a typo is an error that lists every valid
// name, and prints nothing.
func TestUnknownRunIsAnError(t *testing.T) {
	o := quick()
	o.run = "nosuch"
	out, err := runCaptured(t, o)
	if err == nil || !strings.Contains(err.Error(), `unknown -run "nosuch"`) ||
		!strings.Contains(err.Error(), strings.Join(experiments.RunNames(), ", ")) {
		t.Errorf("-run nosuch: %v", err)
	}
	if out != "" {
		t.Errorf("-run nosuch printed %q", out)
	}
}

// TestCSVNeedsASweep: -csv writes the sweep rows the selection
// replays, so a selection that replays none is an error before
// anything runs, and no file is written.
func TestCSVNeedsASweep(t *testing.T) {
	o := quick()
	o.run = "fig4"
	o.csv = filepath.Join(t.TempDir(), "sweep.csv")
	out, err := runCaptured(t, o)
	if err == nil || !strings.Contains(err.Error(), "-run fig4 replays no sweep") {
		t.Errorf("-run fig4 -csv: %v", err)
	}
	if out != "" {
		t.Errorf("-run fig4 -csv printed %q", out)
	}
	if _, err := os.Stat(o.csv); !os.IsNotExist(err) {
		t.Errorf("-run fig4 -csv left a file behind: %v", err)
	}
}

// TestSweepIdenticalAcrossJobs: every cell of a figure fills a slot
// fixed by its place in the grid, so the tables, the sweep CSV, the
// event trace and the manifest's records, spans included, are the same
// bytes at any -j.
func TestSweepIdenticalAcrossJobs(t *testing.T) {
	sweep := func(jobs int) (stdout string, files [][]byte) {
		dir := t.TempDir()
		o := quick()
		o.Jobs = jobs
		o.csv = filepath.Join(dir, "sweep.csv")
		o.SpansSample = 1
		o.Manifest = filepath.Join(dir, "manifest.json")
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatal(err)
		}
		// -events-out replays the cells one at a time, so it runs on its
		// own: the records above come from a pool jobs wide.
		traced := quick()
		traced.Jobs = jobs
		traced.EventsOut = filepath.Join(dir, "events.jsonl")
		if _, err := runCaptured(t, traced); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{o.csv, traced.EventsOut} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, b)
		}
		mf, err := os.Open(o.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		m, err := experiments.ReadManifest(mf)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(experiments.SweepIntervals) * 4; len(m.Runs) != n {
			t.Fatalf("manifest holds %d records, want one per cell of the sweep, %d", len(m.Runs), n)
		}
		if len(m.Runs[0].Spans) == 0 {
			t.Fatalf("%+v: no spans in the record", m.Runs[0].Stamp)
		}
		records, err := json.Marshal(m.Runs)
		if err != nil {
			t.Fatal(err)
		}
		// The "wrote ... to <temp path>" lines name the run's own files.
		return strings.ReplaceAll(out, dir, ""), append(files, records)
	}
	o1, f1 := sweep(1)
	o8, f8 := sweep(8)
	if o1 != o8 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n%s\nvs\n%s", o1, o8)
	}
	for i, flag := range []string{"-csv", "-events-out", "-manifest records"} {
		if !bytes.Equal(f1[i], f8[i]) {
			t.Errorf("%s differs between -j 1 and -j 8: %d vs %d bytes", flag, len(f1[i]), len(f8[i]))
		}
	}
	if !strings.Contains(o1, "== Figures 6 and 7 ==") || !strings.Contains(o1, "wrote sweep CSV to") {
		t.Errorf("-run fig6 -csv printed:\n%s", o1)
	}
}
