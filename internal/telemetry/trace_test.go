package telemetry

import (
	"bytes"
	"encoding/json"
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

	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var hdr TraceHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != TraceSchema || hdr.Version != TraceVersion {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Meta["seed"] != "2014" {
		t.Fatalf("meta = %v", hdr.Meta)
	}
	var got []engine.Event
	for _, line := range lines[1:] {
		var te TraceEvent
		if err := json.Unmarshal([]byte(line), &te); err != nil {
			t.Fatal(err)
		}
		got = append(got, eventOf(t, te))
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

// eventOf converts a trace event back to its engine form, the inverse
// of Record.
func eventOf(t *testing.T, te TraceEvent) engine.Event {
	t.Helper()
	k := engine.Kind(0)
	for k < engine.KindCount && k.String() != te.Kind {
		k++
	}
	if k == engine.KindCount {
		t.Fatalf("unknown event kind %q", te.Kind)
	}
	e := engine.Event{
		Minute:        te.Minute,
		Kind:          k,
		Instance:      te.Instance,
		Request:       te.Request,
		Zone:          te.Zone,
		Spot:          te.Spot,
		Fault:         te.Fault,
		Amount:        market.Money(te.AmountMicroUSD),
		Until:         te.Until,
		Size:          te.Size,
		DurationNanos: te.DurationNanos,
	}
	switch te.Cause {
	case "", "provider":
		e.Cause = market.TerminatedByProvider
	case "user":
		e.Cause = market.TerminatedByUser
	default:
		t.Fatalf("unknown termination cause %q", te.Cause)
	}
	return e
}
