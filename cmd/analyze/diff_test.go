package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/telemetry"
)

// diffEvents is a short hand-written run: a decision, two launches, a
// reclaim and its billing closure, and a quorum transition.
func diffEvents() []engine.Event {
	return []engine.Event{
		{Minute: 0, Kind: engine.KindDecision, Size: 3},
		{Minute: 1, Kind: engine.KindInstanceLaunched, Instance: "i-1", Zone: "us-east-1a", Spot: true, Amount: market.FromDollars(0.009)},
		{Minute: 1, Kind: engine.KindInstanceLaunched, Instance: "i-2", Zone: "us-west-2b", Spot: true, Amount: market.FromDollars(0.012)},
		{Minute: 5, Kind: engine.KindInstanceRunning, Instance: "i-1", Zone: "us-east-1a", Spot: true},
		{Minute: 60, Kind: engine.KindInstanceTerminated, Instance: "i-2", Zone: "us-west-2b", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 60, Kind: engine.KindBillingClose, Instance: "i-2", Zone: "us-west-2b", Spot: true, Amount: market.FromDollars(0.01)},
		{Minute: 60, Kind: engine.KindQuorumDown, Size: 1},
	}
}

// writeTrace writes events as an event trace, the way `replay
// -events-out` does, and returns the file's path.
func writeTrace(t *testing.T, name string, meta map[string]string, events []engine.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := telemetry.NewTraceWriter(f, meta)
	if err != nil {
		t.Fatal(err)
	}
	fan := engine.Fanout{tw}
	for _, e := range events {
		fan.Publish(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRaw writes text as a file and returns its path.
func writeRaw(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diff(t *testing.T, a, b string) (string, bool) {
	t.Helper()
	var out bytes.Buffer
	equal, err := runDiff([]string{a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), equal
}

func TestDiffEqualTraces(t *testing.T) {
	meta := map[string]string{"seed": "1"}
	a := writeTrace(t, "a.jsonl", meta, diffEvents())
	b := writeTrace(t, "b.jsonl", meta, diffEvents())
	out, equal := diff(t, a, b)
	if want := "traces EQUAL: 7 events\n"; !equal || out != want {
		t.Fatalf("diff = %v, %q; want true, %q", equal, out, want)
	}
}

// TestDiffDivergentTraces: the report names the first differing event,
// prints both sides as JSON and counts every event; a meta difference is
// listed after it, and one only in meta would not make the traces differ.
func TestDiffDivergentTraces(t *testing.T) {
	events := diffEvents()
	a := writeTrace(t, "a.jsonl", map[string]string{"seed": "1", "strategy": "jupiter"}, events)
	perturbed := append([]engine.Event(nil), events...)
	perturbed[3].Minute = 2 // first fork at event index 3
	b := writeTrace(t, "b.jsonl", map[string]string{"seed": "2", "weeks": "1"}, perturbed)

	out, equal := diff(t, a, b)
	want := "traces DIFFER: 7 vs 7 events, first divergence at event 3\n" +
		`  A: {"minute":5,"kind":"instance-running","instance":"i-1","zone":"us-east-1a","spot":true}` + "\n" +
		`  B: {"minute":2,"kind":"instance-running","instance":"i-1","zone":"us-east-1a","spot":true}` + "\n" +
		`  header meta "seed": "1" vs "2"` + "\n" +
		`  header meta "strategy": "jupiter" vs (absent)` + "\n" +
		`  header meta "weeks": (absent) vs "1"` + "\n"
	if equal || out != want {
		t.Fatalf("diff = %v,\n%s\nwant false,\n%s", equal, out, want)
	}

	c := writeTrace(t, "c.jsonl", map[string]string{"seed": "2"}, events)
	out, equal = diff(t, a, c)
	if !equal || !strings.HasPrefix(out, "traces EQUAL: 7 events\n") || !strings.Contains(out, `header meta "seed"`) {
		t.Fatalf("meta-only difference: diff = %v,\n%s", equal, out)
	}
}

// TestDiffPrefixTrace: a trace truncated mid-run diverges at the
// shorter length, with the ended side reported as such, on either side.
func TestDiffPrefixTrace(t *testing.T) {
	events := diffEvents()
	a := writeTrace(t, "a.jsonl", nil, events)
	b := writeTrace(t, "b.jsonl", nil, events[:5])
	out, equal := diff(t, a, b)
	if equal || !strings.HasPrefix(out, "traces DIFFER: 7 vs 5 events, first divergence at event 5\n") ||
		!strings.HasSuffix(out, "  B: (trace ended)\n") {
		t.Fatalf("diff = %v,\n%s", equal, out)
	}
	out, equal = diff(t, b, a)
	if equal || !strings.HasPrefix(out, "traces DIFFER: 5 vs 7 events, first divergence at event 5\n  A: (trace ended)\n") {
		t.Fatalf("reversed diff = %v,\n%s", equal, out)
	}
}

// TestDiffRejectsGarbageHeaders: a trace whose header is missing, not
// JSON, of another schema or of a newer version is an error naming the
// file, on either side of the diff.
func TestDiffRejectsGarbageHeaders(t *testing.T) {
	expectRejected(t, map[string]string{
		"":        "empty jupiter-events stream",
		"hello\n": "line 1: invalid character",
		`{"schema":"jupiter-manifest","version":1}` + "\n": `not a jupiter-events stream (schema "jupiter-manifest")`,
		`{"schema":"jupiter-events","version":99}` + "\n":  "jupiter-events version 99 newer than supported 1",
	})
}

// TestDiffReportsBadEventLine: a malformed event line after a good
// header is an error naming the file and the line's number.
func TestDiffReportsBadEventLine(t *testing.T) {
	header := `{"schema":"jupiter-events","version":1}` + "\n"
	expectRejected(t, map[string]string{
		header + `{"minute":1,"kind":"decision"}` + "\nnot json\n": "line 3: invalid character",
		header + "\n": "line 2: unexpected end of JSON input",
	})
}

// expectRejected diffs each text, as a file, against a good trace in
// both orders and checks that the error names the file and its message.
func expectRejected(t *testing.T, cases map[string]string) {
	t.Helper()
	good := writeTrace(t, "good.jsonl", nil, diffEvents())
	for text, want := range cases {
		bad := writeRaw(t, "bad.jsonl", text)
		for _, args := range [][]string{{bad, good}, {good, bad}} {
			_, err := runDiff(args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), bad+": "+want) {
				t.Errorf("diff %q of %q = %v, want %q", args, text, err, bad+": "+want)
			}
		}
	}
}
