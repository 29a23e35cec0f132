package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace/colbin"
)

// quick is the pinned small configuration of the surface tests: one
// replay week after six training weeks, seed 2014, the lock service.
func quick(strategySpec, intervals string) options {
	return options{
		Flags:     experiments.Flags{Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, SpansSample: 1},
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

// TestStdoutSurvives: "-" may name stdout for several outputs at once.
// The sink flushes the event trace without closing the stream, so the
// attribution and the manifest — written last — still land on it.
func TestStdoutSurvives(t *testing.T) {
	o := quick("jupiter", "3")
	o.EventsOut, o.AttribOut, o.Manifest = "-", "-", "-"
	out, err := runCaptured(t, o)
	if err != nil {
		t.Fatalf("run with three outputs on stdout: %v", err)
	}
	if !strings.Contains(out, `{"schema":"jupiter-events"`) {
		t.Error("stdout carries no event-trace header")
	}
	i := strings.LastIndex(out, "{\n  \"schema\": \"jupiter-manifest\"")
	if i < 0 {
		t.Fatal("stdout carries no manifest")
	}
	m, err := telemetry.ReadManifest(strings.NewReader(out[i:]))
	if err != nil {
		t.Fatalf("stdout does not end with a parseable manifest: %v", err)
	}
	if m.Command != "replay" || m.Config["strategy"] != "jupiter" {
		t.Errorf("manifest command %q, strategy %q", m.Command, m.Config["strategy"])
	}
}

// TestRecordsIdentifyTheirRun: every shared flag set away from its
// default shows in the manifest config, the event-trace header and the
// spans header; a default run carries none of those keys; and labels
// and span stamps carry the strategy's own Name(), whatever spec
// spelling built it.
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

	records := func(t *testing.T, o options) (config, events, spans map[string]string, labels map[string]bool, stamps []provenance.Span) {
		t.Helper()
		o.EventsOut = filepath.Join(t.TempDir(), "events.jsonl")
		o.SpansOut = filepath.Join(t.TempDir(), "spans.jsonl")
		o.Manifest = filepath.Join(t.TempDir(), "manifest.json")
		if _, err := runCaptured(t, o); err != nil {
			t.Fatal(err)
		}
		mf, err := os.Open(o.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		m, err := telemetry.ReadManifest(mf)
		if err != nil {
			t.Fatal(err)
		}
		ef, err := os.Open(o.EventsOut)
		if err != nil {
			t.Fatal(err)
		}
		defer ef.Close()
		tr, err := telemetry.OpenTrace(ef)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := os.Open(o.SpansOut)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		hdr, ss, err := provenance.ReadSpans(sf)
		if err != nil {
			t.Fatal(err)
		}
		labels = map[string]bool{}
		for _, fam := range m.Metrics.Families {
			for _, series := range fam.Series {
				for i, l := range fam.Labels {
					if l == "strategy" {
						labels[series.LabelValues[i]] = true
					}
				}
			}
		}
		return m.Config, tr.Header().Meta, hdr.Meta, labels, ss
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
			config, events, spans, _, _ := records(t, o)
			for name, meta := range map[string]map[string]string{"manifest config": config, "events header": events, "spans header": spans} {
				if meta[c.key] != c.want {
					t.Errorf("%s: %s = %q, want %q (%v)", name, c.key, meta[c.key], c.want, meta)
				}
			}
		})
	}

	config, events, spans, labels, _ := records(t, quick("extra(2, 0.2)", "3"))
	for name, meta := range map[string]map[string]string{"manifest config": config, "events header": events, "spans header": spans} {
		for _, key := range []string{"chaos", "chaos-seed", "types", "min-vcpu", "min-mem", "workload"} {
			if v, ok := meta[key]; ok {
				t.Errorf("default run's %s carries %s = %q", name, key, v)
			}
		}
		if meta["strategy"] != "extra(2, 0.2)" {
			t.Errorf("%s: strategy = %q, want the spec as typed", name, meta["strategy"])
		}
	}
	if _, ok := events["spans-sample"]; ok {
		t.Error("default run's events header carries spans-sample")
	}
	if len(labels) != 1 || !labels["Extra(2, 0.2)"] {
		t.Errorf("metric strategy labels = %v, want the strategy's Name()", labels)
	}
	if _, _, _, _, stamps := records(t, quick("jupiter", "3")); len(stamps) == 0 || stamps[0].Strategy != "Jupiter" {
		t.Errorf("span stamps = %d spans, first %+v; want the strategy's Name()", len(stamps), stamps[:min(1, len(stamps))])
	}
}

// TestEveryRegisteredStrategyReplays: -strategy is the registry's door,
// so every registered family's example spec replays from the CLI and
// the report names the strategy that ran.
func TestEveryRegisteredStrategyReplays(t *testing.T) {
	for _, name := range strategy.Default.Names() {
		reg, _ := strategy.Default.Lookup(name)
		t.Run(name, func(t *testing.T) {
			build, err := strategy.Default.Build(reg.Example)
			if err != nil {
				t.Fatal(err)
			}
			out, err := runCaptured(t, quick(reg.Example, "3"))
			if err != nil {
				t.Fatalf("-strategy %q: %v", reg.Example, err)
			}
			want := "strategy:         " + build().Name() + "\n"
			if !strings.HasPrefix(out, want) {
				t.Errorf("-strategy %q report starts %q, want %q", reg.Example, strings.SplitN(out, "\n", 2)[0], want)
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
// trace, the spans and the attribution are the same bytes at any -j.
func TestSweepIdenticalAcrossJobs(t *testing.T) {
	sweep := func(jobs int) (stdout string, events, spans, attrib []byte) {
		dir := t.TempDir()
		o := quick("jupiter", "1,3,6")
		o.Jobs = jobs
		o.SpansOut = filepath.Join(dir, "spans.jsonl")
		o.AttribOut = filepath.Join(dir, "attrib.json")
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatal(err)
		}
		if spans, err = os.ReadFile(o.SpansOut); err != nil {
			t.Fatal(err)
		}
		if attrib, err = os.ReadFile(o.AttribOut); err != nil {
			t.Fatal(err)
		}
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
		return strings.ReplaceAll(out, dir, ""), events, spans, attrib
	}
	o1, e1, s1, a1 := sweep(1)
	o8, e8, s8, a8 := sweep(8)
	if o1 != o8 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n%s\nvs\n%s", o1, o8)
	}
	if !bytes.Equal(e1, e8) {
		t.Errorf("-events-out differs between -j 1 and -j 8: %d vs %d bytes", len(e1), len(e8))
	}
	if !bytes.Equal(s1, s8) {
		t.Errorf("-spans-out differs between -j 1 and -j 8: %d vs %d bytes", len(s1), len(s8))
	}
	if !bytes.Equal(a1, a8) {
		t.Errorf("-attrib-out differs between -j 1 and -j 8")
	}
	var doc provenance.Doc
	if err := json.Unmarshal(a1, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 3 || doc.Runs[0].Interval != "1h" || doc.Runs[2].Interval != "6h" {
		t.Errorf("attribution runs not in -interval order: %+v", doc.Runs)
	}
}

// TestStrategyErrorsAreTheRegistrys: there is no second name table; a
// bad -strategy gets the registry's own message.
func TestStrategyErrorsAreTheRegistrys(t *testing.T) {
	_, err := runCaptured(t, quick("extra", "3"))
	if err == nil || !strings.Contains(err.Error(), "want 2 argument(s) as extra(m, p)") {
		t.Errorf("-strategy extra: %v", err)
	}
	_, err = runCaptured(t, quick("nosuch", "3"))
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "nosuch"`) ||
		!strings.Contains(err.Error(), strings.Join(strategy.Default.Names(), ", ")) {
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
