package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/trace/colbin"
)

// quick is the pinned small configuration of the surface tests: one
// replay week after six training weeks, seed 2014, the lock service.
func quick(strategySpec, intervals string) options {
	return options{
		Flags:     experiments.Flags{Seed: 2014, Train: 6, Weeks: 1, Jobs: 1},
		strategy:  strategySpec,
		service:   "lock",
		intervals: intervals,
	}
}

// runCaptured runs the command in-process with a temp file standing in
// for stdout and returns what it printed.
func runCaptured(t *testing.T, o options) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	runErr := run(o)
	os.Stdout = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestStdoutSurvives: "-" may name stdout for both outputs at once.
// The sink flushes the event trace without closing the stream, so the
// manifest — written last, spans and all — still lands on it.
func TestStdoutSurvives(t *testing.T) {
	o := quick("jupiter", "3")
	o.EventsOut, o.Manifest, o.SpansSample = "-", "-", 1
	out, err := runCaptured(t, o)
	if err != nil {
		t.Fatalf("run with two outputs on stdout: %v", err)
	}
	if !strings.Contains(out, `{"schema":"jupiter-events"`) {
		t.Error("stdout lacks the event trace")
	}
	i := strings.LastIndex(out, "{\n  \"schema\": \"jupiter-manifest\"")
	if i < 0 {
		t.Fatal("stdout carries no manifest")
	}
	m, err := experiments.ReadManifest(strings.NewReader(out[i:]))
	if err != nil {
		t.Fatalf("stdout does not end with a parseable manifest: %v", err)
	}
	if m.Command != "replay" || m.Config["strategy"] != "jupiter" {
		t.Errorf("manifest command %q, strategy %q", m.Command, m.Config["strategy"])
	}
	if len(m.Runs) != 1 || len(m.Runs[0].Spans) == 0 {
		t.Errorf("the manifest's records carry no spans: %d records", len(m.Runs))
	}
}

// TestRecordsIdentifyTheirRun: every shared flag set away from its
// default shows in the manifest config and the event-trace header; a
// default run carries none of those keys; and record stamps carry the
// strategy's own Name(), whatever spec spelling built it.
func TestRecordsIdentifyTheirRun(t *testing.T) {
	dir := t.TempDir()
	set, err := experiments.Env{Seed: 7, TrainWeeks: 6, ReplayWeeks: 1}.Traces(experiments.LockSpec().Type)
	if err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(dir, "market.colbin")
	if err := os.WriteFile(traceFile, colbin.Encode(set), 0o644); err != nil {
		t.Fatal(err)
	}

	records := func(t *testing.T, o options) (config, events map[string]string, runs []experiments.Record) {
		t.Helper()
		o.EventsOut = filepath.Join(t.TempDir(), "events.jsonl")
		o.Manifest = filepath.Join(t.TempDir(), "manifest.json")
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
		return m.Config, hdr.Meta, m.Runs
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
			o := quick("extra(2, 0.2)", "3")
			c.set(&o)
			config, events, _ := records(t, o)
			for name, meta := range map[string]map[string]string{"manifest config": config, "events header": events} {
				if meta[c.key] != c.want {
					t.Errorf("%s: %s = %q, want %q (%v)", name, c.key, meta[c.key], c.want, meta)
				}
			}
		})
	}

	config, events, runs := records(t, quick("extra(2, 0.2)", "3"))
	for name, meta := range map[string]map[string]string{"manifest config": config, "events header": events} {
		for _, key := range []string{"chaos", "chaos-seed", "types", "min-vcpu", "min-mem", "workload", "spans-sample"} {
			if v, ok := meta[key]; ok {
				t.Errorf("default run's %s carries %s = %q", name, key, v)
			}
		}
		if meta["strategy"] != "extra(2, 0.2)" {
			t.Errorf("%s: strategy = %q, want the spec as typed", name, meta["strategy"])
		}
	}
	if len(runs) != 1 || runs[0].Strategy != "Extra(2, 0.2)" {
		t.Errorf("records = %+v, want one stamped with the strategy's Name()", runs)
	}
	traced := quick("jupiter", "3")
	traced.SpansSample = 1
	if _, _, runs := records(t, traced); len(runs) != 1 || runs[0].Strategy != "Jupiter" || len(runs[0].Spans) == 0 {
		t.Errorf("traced records = %d; want one stamped with the strategy's Name(), carrying spans", len(runs))
	}
}

// TestEveryRegisteredStrategyReplays: -strategy is the strategy
// table's door, so every family replays from the CLI — from its bare
// name, or an example spec where it needs arguments — and the report
// names the strategy that ran.
func TestEveryRegisteredStrategyReplays(t *testing.T) {
	for _, name := range experiments.Names() {
		spec := name
		if name == "extra" {
			spec = "extra(2, 0.2)"
		}
		t.Run(name, func(t *testing.T) {
			build, err := experiments.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			out, err := runCaptured(t, quick(spec, "3"))
			if err != nil {
				t.Fatalf("-strategy %q: %v", spec, err)
			}
			want := "strategy:         " + build().Name() + "\n"
			if !strings.HasPrefix(out, want) {
				t.Errorf("-strategy %q report starts %q, want %q", spec, strings.SplitN(out, "\n", 2)[0], want)
			}
		})
	}
}

// TestParentPins holds the cells the three-name -strategy switch could
// reach to the figures it printed before the registry replaced it.
func TestParentPins(t *testing.T) {
	for _, c := range []struct {
		strategy, intervals string
		want                []string
	}{
		{"extra(2, 0.2)", "3", []string{
			"strategy:         Extra(2, 0.2)\n",
			"cost:             $8.5823\n",
			"availability:     1.000000 (0 of 10079 minutes down)\n",
			"decisions:        57\n",
			"spot launches:    99 (out-of-bid terminations 47, failed requests 0)\n",
			"group size:       mean 7.00, max 7\n",
		}},
		{"extra(0, 0.2)", "1,3", []string{
			"strategy Extra(0, 0.2), service lock (5 nodes base, m=1)\n",
			"      1h         $7.4986      1.000000         169         50         5\n",
			"      3h         $5.9041      0.999008          57         41         5\n",
		}},
		{"baseline", "3", []string{
			"strategy:         Baseline\n",
			"cost:             $37.18\n",
			"availability:     1.000000 (0 of 10079 minutes down)\n",
		}},
	} {
		o := quick(c.strategy, c.intervals)
		o.Jobs = 2
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatalf("-strategy %q: %v", c.strategy, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("-strategy %q -interval %s: output lacks %q:\n%s", c.strategy, c.intervals, want, out)
			}
		}
	}
}

// TestSweepIdenticalAcrossJobs: the cells of an interval sweep fill
// slots fixed by their place in -interval, so the table, the event
// trace and the manifest's records, spans included, are the same bytes
// at any -j.
func TestSweepIdenticalAcrossJobs(t *testing.T) {
	sweep := func(jobs int) (stdout string, events, records []byte) {
		dir := t.TempDir()
		o := quick("jupiter", "1,3,6")
		o.Jobs = jobs
		o.SpansSample = 1
		o.Manifest = filepath.Join(dir, "manifest.json")
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatal(err)
		}
		records = manifestRecords(t, o.Manifest, 3)
		// -events-out replays the cells one at a time, so it runs on its
		// own: the records above come from a pool jobs wide.
		traced := quick("jupiter", "1,3,6")
		traced.Jobs = jobs
		traced.EventsOut = filepath.Join(dir, "events.jsonl")
		if _, err := runCaptured(t, traced); err != nil {
			t.Fatal(err)
		}
		if events, err = os.ReadFile(traced.EventsOut); err != nil {
			t.Fatal(err)
		}
		// The "wrote ... to <temp path>" lines name the run's own files.
		return strings.ReplaceAll(out, dir, ""), events, records
	}
	o1, e1, r1 := sweep(1)
	o8, e8, r8 := sweep(8)
	if o1 != o8 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n%s\nvs\n%s", o1, o8)
	}
	if !bytes.Equal(e1, e8) {
		t.Errorf("-events-out differs between -j 1 and -j 8: %d vs %d bytes", len(e1), len(e8))
	}
	if !bytes.Equal(r1, r8) {
		t.Errorf("manifest records differ between -j 1 and -j 8:\n%s\nvs\n%s", r1, r8)
	}
}

// manifestRecords reads a manifest's records, checks there are want of
// them in -interval order, and returns them as JSON — the part of the
// manifest that is the same at any -j (its wall time is not).
func manifestRecords(t *testing.T, path string, want int) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := experiments.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != want || m.Runs[0].Interval != "1h" || m.Runs[want-1].Interval != "6h" {
		t.Fatalf("manifest records not one per cell in -interval order: %+v", m.Runs)
	}
	for _, r := range m.Runs {
		if len(r.Spans) == 0 {
			t.Fatalf("%+v: no spans in the record", r.Stamp)
		}
	}
	b, err := json.Marshal(m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpansSampleNeedsManifest: spans are recorded only into the
// manifest's records, so -spans-sample without -manifest, or below 0,
// is a usage error before anything replays.
func TestSpansSampleNeedsManifest(t *testing.T) {
	o := quick("jupiter", "3")
	o.SpansSample = 1
	if out, err := runCaptured(t, o); err == nil || !strings.Contains(err.Error(), "needs -manifest") || out != "" {
		t.Errorf("-spans-sample 1 without -manifest: %v, printed %q", err, out)
	}
	o.SpansSample, o.Manifest = -1, filepath.Join(t.TempDir(), "manifest.json")
	if _, err := runCaptured(t, o); err == nil || !strings.Contains(err.Error(), "-spans-sample -1") {
		t.Errorf("-spans-sample -1: %v", err)
	}
}

// TestScaleFlagsRejected: a scale that leaves no week to train on or to
// replay, or a negative worker count, is a usage error that names its
// flag before anything replays; -j 0 replays one cell at a time, as
// -j 1 does.
func TestScaleFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		set  func(*options)
		want string
	}{
		{func(o *options) { o.Weeks = 0 }, "-weeks 0"},
		{func(o *options) { o.Train = 0 }, "-train 0"},
		{func(o *options) { o.Jobs = -3 }, "-j -3"},
	} {
		o := quick("extra(2, 0.2)", "3")
		c.set(&o)
		if out, err := runCaptured(t, o); err == nil || !strings.HasPrefix(err.Error(), c.want+":") || out != "" {
			t.Errorf("%s: %v, printed %q", c.want, err, out)
		}
	}
	want, err := runCaptured(t, quick("extra(2, 0.2)", "3"))
	if err != nil {
		t.Fatal(err)
	}
	o := quick("extra(2, 0.2)", "3")
	o.Jobs = 0
	if got, err := runCaptured(t, o); err != nil || got != want {
		t.Errorf("-j 0: %v, printed\n%s\nwant\n%s", err, got, want)
	}
}

// TestStrategyErrorsAreTheRegistrys: there is no second name table; a
// bad -strategy gets the strategy table's own message.
func TestStrategyErrorsAreTheRegistrys(t *testing.T) {
	_, err := runCaptured(t, quick("extra", "3"))
	if err == nil || !strings.Contains(err.Error(), "want 2 argument(s) as extra(m, p)") {
		t.Errorf("-strategy extra: %v", err)
	}
	_, err = runCaptured(t, quick("nosuch", "3"))
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "nosuch"`) ||
		!strings.Contains(err.Error(), strings.Join(experiments.Names(), ", ")) {
		t.Errorf("-strategy nosuch: %v", err)
	}
}

// TestLenientFlagReachesTheReader: -lenient-traces is replay's own flag
// but the shared Open does the reading; a malformed CSV row fails a
// strict run with its line and is quarantined by a lenient one.
func TestLenientFlagReachesTheReader(t *testing.T) {
	set, err := experiments.Env{Seed: 2014, TrainWeeks: 6, ReplayWeeks: 1}.Traces(experiments.LockSpec().Type)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines = append(lines[:2], append([]string{"not,a,valid,row\n"}, lines[2:]...)...)
	file := filepath.Join(t.TempDir(), "market.csv")
	if err := os.WriteFile(file, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	o := quick("baseline", "3")
	o.Trace = file
	if _, err := runCaptured(t, o); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("strict read of a malformed row: %v", err)
	}
	o.Lenient = true
	if _, err := runCaptured(t, o); err != nil {
		t.Errorf("lenient read of a malformed row: %v", err)
	}
}

// TestSeriesWriteErrorFails: a -series file the disk cannot hold fails
// the run with the write error, instead of leaving a truncated CSV and
// exit status 0.
func TestSeriesWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	o := quick("baseline", "3")
	o.series = "/dev/full"
	_, err := runCaptured(t, o)
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "no space left on device") {
		t.Errorf("-series /dev/full: %v, want ENOSPC", err)
	}
}
