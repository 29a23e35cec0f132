package telemetry

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
)

func writeScripted(t *testing.T, meta map[string]string, events []engine.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	f := engine.Fanout{tw}
	for _, e := range events {
		f.Publish(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceRoundTrip(t *testing.T) {
	events := scriptedEvents()
	raw := writeScripted(t, map[string]string{"seed": "2014", "strategy": "jupiter"}, events)

	tr, err := OpenTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header().Schema != TraceSchema || tr.Header().Version != TraceVersion {
		t.Fatalf("header = %+v", tr.Header())
	}
	if tr.Header().Meta["seed"] != "2014" {
		t.Fatalf("meta = %v", tr.Header().Meta)
	}
	var got []engine.Event
	for {
		te, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := te.Event()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i := range events {
		// The writer normalizes wall-clock fields out of the trace.
		want := events[i]
		want.DurationNanos = 0
		if got[i] != want {
			t.Fatalf("event %d: read %+v, want %+v", i, got[i], want)
		}
	}
}

// TestTraceNormalizesWallClock pins the determinism contract: the only
// wall-clock field on events never reaches the trace.
func TestTraceNormalizesWallClock(t *testing.T) {
	a := writeScripted(t, nil, []engine.Event{
		{Minute: 1, Kind: engine.KindModelTrained, Zone: "z", Size: 1, DurationNanos: 123456},
	})
	b := writeScripted(t, nil, []engine.Event{
		{Minute: 1, Kind: engine.KindModelTrained, Zone: "z", Size: 1, DurationNanos: 654321},
	})
	if !bytes.Equal(a, b) {
		t.Fatal("wall-clock jitter leaked into the trace bytes")
	}
}

// TestTraceDeterministic pins the byte-identity contract: writing the
// same events twice produces identical files.
func TestTraceDeterministic(t *testing.T) {
	meta := map[string]string{"seed": "7", "interval": "3h", "strategy": "jupiter"}
	a := writeScripted(t, meta, scriptedEvents())
	b := writeScripted(t, meta, scriptedEvents())
	if !bytes.Equal(a, b) {
		t.Fatal("same events produced different trace bytes")
	}
}

// TestTraceOutOfBidNotDuplicated: a provider reclaim reaches observers
// through both OnInstance and OnOutOfBid; the trace must record it once.
func TestTraceOutOfBidNotDuplicated(t *testing.T) {
	raw := writeScripted(t, nil, []engine.Event{
		{Minute: 9, Kind: engine.KindInstanceTerminated, Instance: "i-1",
			Zone: "z", Spot: true, Cause: market.TerminatedByProvider},
	})
	if n := bytes.Count(raw, []byte("instance-terminated")); n != 1 {
		t.Fatalf("reclaim recorded %d times, want 1:\n%s", n, raw)
	}
}

func TestOpenTraceRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":         "",
		"not-json":      "hello\n",
		"wrong-schema":  `{"schema":"something-else","version":1}` + "\n",
		"newer-version": `{"schema":"jupiter-events","version":99}` + "\n",
	} {
		if _, err := OpenTrace(strings.NewReader(input)); err == nil {
			t.Errorf("%s: OpenTrace accepted invalid input", name)
		}
	}
}

// TestTraceReaderErrors: each way a trace can be unreadable has its own
// message, and a malformed event line names its number.
func TestTraceReaderErrors(t *testing.T) {
	for input, want := range map[string]string{
		"": "empty jupiter-events stream",
		`{"schema":"jupiter-manifest","version":1}` + "\n": "not a jupiter-events stream",
		`{"schema":"jupiter-events","version":99}` + "\n":  "newer than supported",
	} {
		if _, err := OpenTrace(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenTrace(%q) = %v, want %q", input, err, want)
		}
	}
	bad := `{"schema":"jupiter-events","version":1}` + "\n" +
		`{"minute":1,"kind":"decision"}` + "\n" +
		`not json` + "\n"
	tr, err := OpenTrace(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil || !strings.Contains(err.Error(), "jupiter-events line 3") {
		t.Fatalf("malformed line error = %v, want line 3", err)
	}
}

func TestDiffEqualTraces(t *testing.T) {
	meta := map[string]string{"seed": "1"}
	a := writeScripted(t, meta, scriptedEvents())
	b := writeScripted(t, meta, scriptedEvents())
	d, err := DiffTraces(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || d.FirstDivergence != -1 || len(d.MetaDiffs) != 0 {
		t.Fatalf("diff = %+v, want equal", d)
	}
	if !strings.Contains(d.Report(), "EQUAL") {
		t.Fatalf("report = %q", d.Report())
	}
}

func TestDiffDivergentTraces(t *testing.T) {
	events := scriptedEvents()
	a := writeScripted(t, map[string]string{"seed": "1"}, events)
	perturbed := append([]engine.Event(nil), events...)
	perturbed[3].Minute = 2 // first fork at event index 3
	b := writeScripted(t, map[string]string{"seed": "2"}, perturbed)

	d, err := DiffTraces(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("perturbed trace reported equal")
	}
	if d.FirstDivergence != 3 {
		t.Fatalf("first divergence at %d, want 3", d.FirstDivergence)
	}
	if d.A == nil || d.B == nil || d.A.Minute == d.B.Minute {
		t.Fatalf("divergence pair = %+v / %+v", d.A, d.B)
	}
	if d.EventsA != int64(len(events)) || d.EventsB != int64(len(events)) {
		t.Fatalf("counts = %d/%d, want %d", d.EventsA, d.EventsB, len(events))
	}
	if len(d.MetaDiffs) != 1 || !strings.Contains(d.MetaDiffs[0], "seed") {
		t.Fatalf("meta diffs = %v", d.MetaDiffs)
	}
	rep := d.Report()
	for _, want := range []string{"DIFFER", "divergence at event 3", `"seed"`} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDiffPrefixTrace: one trace truncated mid-run diverges at the
// shorter length, with the ended side reported as nil.
func TestDiffPrefixTrace(t *testing.T) {
	events := scriptedEvents()
	a := writeScripted(t, nil, events)
	b := writeScripted(t, nil, events[:5])
	d, err := DiffTraces(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.FirstDivergence != 5 || d.B != nil || d.A == nil {
		t.Fatalf("diff = %+v", d)
	}
	if d.EventsA != int64(len(events)) || d.EventsB != 5 {
		t.Fatalf("counts = %d/%d", d.EventsA, d.EventsB)
	}
	if !strings.Contains(d.Report(), "(trace ended)") {
		t.Fatalf("report = %q", d.Report())
	}
}
