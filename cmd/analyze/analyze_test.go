package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
)

// record replays the lock service at the quick scale through the shared
// command surface — the path "replay -spans-out -attrib-out" takes —
// and returns the spans file, the attribution file and the results.
func record(t *testing.T, spec string, intervals ...int64) (spans, attrib string, results []*replay.Result) {
	t.Helper()
	dir := t.TempDir()
	f := experiments.Flags{
		Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, SpansSample: 1,
		SpansOut: filepath.Join(dir, "spans.jsonl"), AttribOut: filepath.Join(dir, "attrib.json"),
	}
	env, sink, err := f.Open("replay", experiments.LockSpec(), "strategy", spec)
	if err != nil {
		t.Fatal(err)
	}
	build, err := strategy.Default.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err = env.ReplayIntervals(experiments.LockSpec(), build, intervals)
	if err := sink.Close(err); err != nil {
		t.Fatal(err)
	}
	return f.SpansOut, f.AttribOut, results
}

// TestExplainReconstructsTheDecision: "replay -spans-out" followed by
// "analyze explain" is what replaced cmd/jupiter — every group size with
// its outcome, failure-probability target and cost bound, the pools, and
// the chosen bids — so the pair's first decision of the 6 h lock cell is
// pinned: five nodes at the FP' = 0.01 target, five bids placed.
func TestExplainReconstructsTheDecision(t *testing.T) {
	spans, _, _ := record(t, "jupiter", 6)
	var out bytes.Buffer
	if err := runExplain([]string{"-decision", "1", spans}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "run: strategy Jupiter, service lock, interval 6h, seed 2014\ndecision 1 at minute 60465") {
		t.Errorf("explain does not name the run and decision:\n%s", text)
	}
	if !regexp.MustCompile(`(?m)^  5 +feasible +0\.01 +\$0\.\d+$`).MatchString(text) {
		t.Errorf("no feasible candidate row for n = 5 at FP target 0.01:\n%s", text)
	}
	_, group, ok := strings.Cut(text, "chosen group:\n")
	if !ok {
		t.Fatalf("no chosen group:\n%s", text)
	}
	group, _, _ = strings.Cut(group, "\n\n")
	if bids := strings.Count(group, "\n"); bids != 5 { // header line + 5 bids, the last unterminated
		t.Errorf("chosen group has %d bids, want 5:\n%s", bids, group)
	}
	if !strings.Contains(text, "chosen: 5 nodes") {
		t.Errorf("no chosen line for 5 nodes:\n%s", text)
	}
}

// TestExplainRefusesAmbiguousStreams: a stream holding two runs must be
// narrowed, and the error lists both stamps — the strategy's Name(),
// whichever command wrote the file.
func TestExplainRefusesAmbiguousStreams(t *testing.T) {
	spans, _, _ := record(t, "jupiter", 3, 6)
	var out bytes.Buffer
	err := runExplain([]string{spans}, &out)
	if err == nil {
		t.Fatalf("two-run stream explained without a filter:\n%s", out.String())
	}
	for _, want := range []string{
		"narrow with -strategy/",
		"strategy Jupiter, service lock, interval 3h, seed 2014",
		"strategy Jupiter, service lock, interval 6h, seed 2014",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
	if err := runExplain([]string{"-strategy", "Jupiter", "-interval", "6h", spans}, &out); err != nil {
		t.Errorf("narrowed stream: %v", err)
	}
}

// TestExplainEmptyStream: a rival that records no decision provenance
// leaves a header-only stream; explain says so instead of "no match".
func TestExplainEmptyStream(t *testing.T) {
	spans, _, _ := record(t, "feedback", 3)
	err := runExplain([]string{spans}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `strategy "feedback" records no decision provenance`) {
		t.Errorf("header-only stream: %v", err)
	}
}

// TestAttributeTotalsMatchTheRun: the rendered attribution's TOTAL row
// is the replay's bill and downtime — for a rival as for Jupiter, since
// the ledger is an observer and needs nothing from the strategy.
func TestAttributeTotalsMatchTheRun(t *testing.T) {
	for _, spec := range []string{"jupiter", "feedback"} {
		_, attrib, results := record(t, spec, 3)
		var out bytes.Buffer
		if err := runAttribute([]string{attrib}, &out); err != nil {
			t.Fatal(err)
		}
		res := results[0]
		total := regexp.MustCompile(`(?m)^TOTAL +(\S+) +(\d+)$`).FindStringSubmatch(out.String())
		if total == nil {
			t.Fatalf("%s: no TOTAL row:\n%s", spec, out.String())
		}
		if total[1] != res.Cost.String() || total[2] != strconv.FormatInt(res.DownMinutes, 10) {
			t.Errorf("%s: TOTAL row %s / %s min, run billed %s and was down %d min",
				spec, total[1], total[2], res.Cost, res.DownMinutes)
		}
		var raw bytes.Buffer
		if err := runAttribute([]string{"-json", attrib}, &raw); err != nil {
			t.Fatal(err)
		}
		var doc provenance.Doc
		if err := json.Unmarshal(raw.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Runs) != 1 || doc.Runs[0].TotalCostMicroUSD != int64(res.Cost) || doc.Runs[0].TotalDownMinutes != res.DownMinutes {
			t.Errorf("%s: attribution totals do not reconcile with the run (%d µ$, %d min): %+v",
				spec, int64(res.Cost), res.DownMinutes, doc.Runs)
		}
		if !strings.Contains(out.String(), "== strategy "+res.Strategy+", service lock, interval 3h, seed 2014 ==") {
			t.Errorf("%s: run label missing:\n%s", spec, out.String())
		}
	}
}
