package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/replay"
	"repro/internal/trace"
)

// record replays the lock service at the quick scale through the shared
// command surface — the path "replay -manifest -spans-sample 1" takes —
// and returns the manifest and the results.
func record(t *testing.T, spec string, intervals ...int64) (manifest string, results []*replay.Result) {
	t.Helper()
	f := experiments.Flags{
		Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, SpansSample: 1,
		Manifest: filepath.Join(t.TempDir(), "manifest.json"),
	}
	env, sink, err := f.Open("replay", experiments.LockSpec(), "strategy", spec)
	if err != nil {
		t.Fatal(err)
	}
	build, err := experiments.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err = env.ReplayIntervals(experiments.LockSpec(), build, intervals)
	if err := sink.Close(err); err != nil {
		t.Fatal(err)
	}
	return f.Manifest, results
}

// TestExplainReconstructsTheDecision: "replay -manifest -spans-sample 1"
// followed by "analyze explain" is what replaced cmd/jupiter — every
// group size with its outcome, failure-probability target and cost
// bound, the pools, and the chosen bids — so the pair's first decision
// of the 6 h lock cell is pinned: five nodes at the FP' = 0.01 target,
// five bids placed.
func TestExplainReconstructsTheDecision(t *testing.T) {
	manifest, _ := record(t, "jupiter", 6)
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
	manifest, _ := record(t, "jupiter", 6)
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
	manifest, _ := record(t, "jupiter", 3, 6)
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

// TestExplainPicksRecordByIndex: -record N picks the manifest's N-th
// record, so two records of one stamp — a cell replayed twice — can be
// told apart, and the ambiguity error names each record by its index.
func TestExplainPicksRecordByIndex(t *testing.T) {
	manifest, _ := record(t, "jupiter", 3, 6, 3)
	err := runExplain([]string{"-interval", "3h", manifest}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("two records of one stamp explained without -record")
	}
	for _, want := range []string{
		"or -record:",
		"record 1: strategy Jupiter, service lock, interval 3h, seed 2014",
		"record 3: strategy Jupiter, service lock, interval 3h, seed 2014",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "record 2:") {
		t.Errorf("error lists the 6h record the filter dropped: %v", err)
	}
	var out bytes.Buffer
	if err := runExplain([]string{"-record", "2", "-decision", "1", manifest}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "run: strategy Jupiter, service lock, interval 6h, seed 2014\n") {
		t.Errorf("-record 2 explains another record:\n%s", out.String())
	}
	var first, third bytes.Buffer
	if err := runExplain([]string{"-record", "1", manifest}, &first); err != nil {
		t.Fatal(err)
	}
	if err := runExplain([]string{"-record", "3", "-interval", "3h", manifest}, &third); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || first.String() != third.String() {
		t.Errorf("one cell replayed twice explains differently:\n%s\n%s", first.String(), third.String())
	}
	if err := runExplain([]string{"-record", "2", "-interval", "3h", manifest}, &out); err == nil || !strings.Contains(err.Error(), "no replay record matches") {
		t.Errorf("-record 2 with a filter it fails: %v", err)
	}
	if err := runExplain([]string{"-record", "4", manifest}, &out); err == nil || !strings.Contains(err.Error(), "holds 3 replay records") {
		t.Errorf("-record past the manifest: %v", err)
	}
}

// TestExplainEmptyStream: a rival that records no decision provenance
// leaves a record without spans; explain says so instead of "no match".
// A run without -spans-sample recorded none at all, and explain says
// that instead.
func TestExplainEmptyStream(t *testing.T) {
	manifest, _ := record(t, "feedback", 3)
	err := runExplain([]string{manifest}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `strategy "Feedback(0.03)" records no decision provenance`) {
		t.Errorf("a record without spans: %v", err)
	}

	f := experiments.Flags{Seed: 2014, Train: 6, Weeks: 1, Jobs: 1, Manifest: filepath.Join(t.TempDir(), "manifest.json")}
	env, sink, err := f.Open("replay", experiments.LockSpec(), "strategy", "jupiter")
	if err != nil {
		t.Fatal(err)
	}
	build, err := experiments.Build("jupiter")
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
// was recorded at commit 63d825d, the last with that stream, from a
// replay -interval 6 -weeks 1 -train 6 -seed 2014 of the Jupiter variant
// with the heterogeneous-bid descent, its spans written to s.jsonl, then
// "analyze explain -decision 1 s.jsonl". The descent saved $0 on that
// decision; when it was deleted the pin lost the line reporting that and
// took plain Jupiter's name, and commit 4dc6420 prints the file byte for
// byte for -strategy jupiter.
func TestExplainMatchesTheSpansStream(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "explain_jupiter_decision1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	manifest, _ := record(t, "jupiter", 6)
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
// the ledger is an observer and needs nothing from the strategy.
func TestAttributeTotalsMatchTheRun(t *testing.T) {
	for _, spec := range []string{"jupiter", "feedback"} {
		manifest, results := record(t, spec, 3)
		var out bytes.Buffer
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
	}
}

// TestEmptySyntheticMarketRejected: -weeks below 1 on the synthetic
// path is a usage error naming the flag, before any market is
// generated.
func TestEmptySyntheticMarketRejected(t *testing.T) {
	for _, weeks := range []int64{0, -2} {
		err := run([]string{"-weeks", fmt.Sprint(weeks), "-zones", "us-east-1a"})
		if want := fmt.Sprintf("-weeks %d:", weeks); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("-weeks %d: %v, want an error starting %q", weeks, err, want)
		}
	}
}

// TestListFlags: -zones follows the one list rule. A blank entry or a
// repeated zone is an error naming the flag and the 1-based entry, and
// so is an empty list; padding around an entry is trimmed.
func TestListFlags(t *testing.T) {
	for zones, want := range map[string]string{
		"us-east-1a,,us-west-2b": `-zones entry 2 (""): empty`,
		"us-east-1a,":            `-zones entry 2 (""): empty`,
		"us-east-1a,us-east-1a":  `-zones entry 2 ("us-east-1a"): repeats entry 1`,
		"":                       "-zones: empty list",
	} {
		if err := run([]string{"-weeks", "1", "-zones", zones}); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("-zones %q: %v, want an error starting %q", zones, err, want)
		}
	}
	analyze := func(zones string) string {
		f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		old := os.Stdout
		os.Stdout = f
		err = run([]string{"-weeks", "1", "-zones", zones})
		os.Stdout = old
		if err != nil {
			t.Fatalf("-zones %q: %v", zones, err)
		}
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	got, want := analyze(" us-east-1a , us-west-2b"), analyze("us-east-1a,us-west-2b")
	if got != want || strings.Count(got, "== us-") != 2 {
		t.Errorf("padded -zones print\n%s\nwant\n%s", got, want)
	}
}

// TestTraceRejectsGeneratorFlags: -seed and -zones shape the synthetic
// market, so either set beside -trace is an error naming it, instead of
// being ignored while the file's own zones are analyzed.
func TestTraceRejectsGeneratorFlags(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{Seed: 2014, Type: market.M1Small, Zones: []string{"us-east-1a", "us-west-2b"}, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "z.csv")
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for flag, value := range map[string]string{"zones": "eu-west-1a", "seed": "7"} {
		want := "-" + flag + " shapes a generated market; -trace reads one"
		if err := run([]string{"-trace", file, "-weeks", "1", "-" + flag, value}); err == nil || err.Error() != want {
			t.Errorf("-trace with -%s: %v, want %q", flag, err, want)
		}
	}
	stdout := os.Stdout
	if os.Stdout, err = os.Create(filepath.Join(t.TempDir(), "stdout")); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-trace", file, "-weeks", "1"})
	os.Stdout.Close()
	os.Stdout = stdout
	if err != nil {
		t.Errorf("-trace alone: %v", err)
	}
}
