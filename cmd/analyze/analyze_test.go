package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/strategy"
)

// record replays the lock service at the quick scale through the shared
// command surface — the path "replay -manifest -spans-sample 1
// -events-out" takes — and returns the manifest, the event trace and
// the results.
func record(t *testing.T, spec string, intervals ...int64) (manifest, events string, results []*replay.Result) {
	t.Helper()
	dir := t.TempDir()
	f := experiments.Flags{
		Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, SpansSample: 1,
		Manifest: filepath.Join(dir, "manifest.json"), EventsOut: filepath.Join(dir, "events.jsonl"),
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
	return f.Manifest, f.EventsOut, results
}

// TestExplainReconstructsTheDecision: "replay -manifest -spans-sample 1"
// followed by "analyze explain" is what replaced cmd/jupiter — every
// group size with its outcome, failure-probability target and cost
// bound, the pools, and the chosen bids — so the pair's first decision
// of the 6 h lock cell is pinned: five nodes at the FP' = 0.01 target,
// five bids placed.
func TestExplainReconstructsTheDecision(t *testing.T) {
	manifest, _, _ := record(t, "jupiter", 6)
	var out bytes.Buffer
	if err := runExplain([]string{"-decision", "1", manifest}, &out); err != nil {
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

// TestExplainPrintsTheCut: the enumeration stops at the first group size
// whose constraint-(9) lower bound reaches the cheapest group found, and
// explain prints that size as the last candidate row, "pruned", with the
// bound in the COST-BOUND column — one row after the last size priced, and
// no cheaper than the cheapest feasible one.
func TestExplainPrintsTheCut(t *testing.T) {
	manifest, _, _ := record(t, "jupiter", 6)
	var out bytes.Buffer
	if err := runExplain([]string{"-decision", "1", manifest}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	_, table, ok := strings.Cut(text, "candidate group sizes:\n")
	if !ok {
		t.Fatalf("no candidate table:\n%s", text)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := strings.Split(table, "\n")[1:] // below the header
	row := regexp.MustCompile(`^  (\d+) +(\S+) +(?:\S+ +)?(\$\d+\.\d+)?$`)
	var nodes []int
	var outcomes, costs []string
	for _, r := range rows {
		m := row.FindStringSubmatch(r)
		if m == nil {
			t.Fatalf("unreadable candidate row %q:\n%s", r, text)
		}
		n, _ := strconv.Atoi(m[1])
		nodes, outcomes, costs = append(nodes, n), append(outcomes, m[2]), append(costs, m[3])
	}
	last := len(rows) - 1
	if last < 1 || outcomes[last] != "pruned" || costs[last] == "" || nodes[last] != nodes[last-1]+1 {
		t.Fatalf("the last candidate row is not the cut, one size past the last priced, with its bound:\n%s", table)
	}
	if strings.Count(table, "pruned") != 1 {
		t.Fatalf("more than one pruned row:\n%s", table)
	}
	bound := dollars(t, costs[last])
	cheapest := -1.0
	for i, o := range outcomes[:last] {
		if o == "feasible" && (cheapest < 0 || dollars(t, costs[i]) < cheapest) {
			cheapest = dollars(t, costs[i])
		}
	}
	if cheapest < 0 || bound < cheapest {
		t.Fatalf("bound %v under the cheapest feasible candidate %v:\n%s", bound, cheapest, table)
	}
}

func dollars(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "$"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestExplainRefusesAmbiguousStreams: a manifest holding two traced
// runs must be narrowed, and the error lists both stamps — the
// strategy's Name(), whichever command wrote the file.
func TestExplainRefusesAmbiguousStreams(t *testing.T) {
	manifest, _, _ := record(t, "jupiter", 3, 6)
	var out bytes.Buffer
	err := runExplain([]string{manifest}, &out)
	if err == nil {
		t.Fatalf("two-run manifest explained without a filter:\n%s", out.String())
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
	if err := runExplain([]string{"-strategy", "Jupiter", "-interval", "6h", manifest}, &out); err != nil {
		t.Errorf("narrowed manifest: %v", err)
	}
}

// TestExplainEmptyStream: a rival that records no decision provenance
// leaves a record without spans; explain says so instead of "no match".
// A run without -spans-sample recorded none at all, and explain says
// that instead.
func TestExplainEmptyStream(t *testing.T) {
	manifest, _, _ := record(t, "feedback", 3)
	err := runExplain([]string{manifest}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `strategy "Feedback(0.03)" records no decision provenance`) {
		t.Errorf("a record without spans: %v", err)
	}

	f := experiments.Flags{Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, Manifest: filepath.Join(t.TempDir(), "manifest.json")}
	env, sink, err := f.Open("replay", experiments.LockSpec(), "strategy", "jupiter")
	if err != nil {
		t.Fatal(err)
	}
	build, err := strategy.Default.Build("jupiter")
	if err != nil {
		t.Fatal(err)
	}
	_, err = env.ReplayIntervals(experiments.LockSpec(), build, []int64{3})
	if err := sink.Close(err); err != nil {
		t.Fatal(err)
	}
	err = runExplain([]string{f.Manifest}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "rerun it with -spans-sample N") {
		t.Errorf("a run without -spans-sample: %v", err)
	}
}

// TestExplainMatchesTheSpansStream: explain over the manifest prints,
// byte for byte, what it printed for the same cell's first decision
// from the separate JSONL spans stream the manifest replaced. The pin
// was recorded at commit 63d825d, the last with that stream: replay
// -strategy jupiter-refine -interval 6 -weeks 1 -train 6 -seed 2014,
// its spans written to s.jsonl, then "analyze explain -decision 1
// s.jsonl".
func TestExplainMatchesTheSpansStream(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "explain_jupiter_refine_decision1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	manifest, _, _ := record(t, "jupiter-refine", 6)
	var out bytes.Buffer
	if err := runExplain([]string{"-decision", "1", manifest}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("explain prints\n%s\nthe spans stream explained as\n%s", out.String(), want)
	}
}

// TestAttributeTotalsMatchTheRun: the rendered attribution's TOTAL row
// is the replay's bill and downtime — for a rival as for Jupiter, since
// the ledger is an observer and needs nothing from the strategy — and
// folding the run's event trace offline gives the manifest record's
// table line for line.
func TestAttributeTotalsMatchTheRun(t *testing.T) {
	for _, spec := range []string{"jupiter", "feedback"} {
		manifest, events, results := record(t, spec, 3)
		var out, folded bytes.Buffer
		if err := runAttribute([]string{manifest}, &out); err != nil {
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
		if !strings.Contains(out.String(), "== strategy "+res.Strategy+", service lock, interval 3h, seed 2014 ==") {
			t.Errorf("%s: run label missing:\n%s", spec, out.String())
		}
		// The trace header names the strategy as typed, the manifest by
		// its Name(): the tables below the label are the same.
		if err := runAttribute([]string{events}, &folded); err != nil {
			t.Fatal(err)
		}
		_, table, _ := strings.Cut(out.String(), "\n")
		_, foldedTable, _ := strings.Cut(folded.String(), "\n")
		if table != foldedTable {
			t.Errorf("%s: the event trace folds to\n%s\nthe manifest records\n%s", spec, foldedTable, table)
		}
	}
}

// TestAttributeRefusesMultiRunTrace: a sweep's event trace holds its
// cells one after another, so its minute goes backwards where a cell
// begins; folding it would add the cells into one table, and is an
// error naming the line and both minutes that points to the manifest.
func TestAttributeRefusesMultiRunTrace(t *testing.T) {
	_, events, _ := record(t, "jupiter", 1, 3)
	err := runAttribute([]string{events}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("a two-cell event trace folded without error")
	}
	if !regexp.MustCompile(`^event trace line \d+: minute \d+ after minute \d+: .*-manifest`).MatchString(err.Error()) {
		t.Errorf("multi-run trace error = %q", err)
	}
}
