package provenance

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/market"
)

// publish dispatches a scripted event stream through the ledger the
// way the replay kernel would.
func publish(l *Ledger, events []engine.Event) {
	f := engine.Fanout{l}
	for _, e := range events {
		f.Publish(e)
	}
}

// TestLedgerCostCauses scripts one of every termination mechanism and
// checks each bill lands in its (pool, cause) cell, with the total
// equal to the billed sum.
func TestLedgerCostCauses(t *testing.T) {
	l := NewLedger()
	publish(l, []engine.Event{
		// i-od: on-demand time.
		{Minute: 0, Kind: engine.KindInstanceLaunched, Instance: "i-od", Zone: "us-east-1a"},
		{Minute: 100, Kind: engine.KindInstanceTerminated, Instance: "i-od", Zone: "us-east-1a", Cause: market.TerminatedByUser},
		{Minute: 100, Kind: engine.KindBillingClose, Instance: "i-od", Zone: "us-east-1a", Amount: 1000},
		// i-served: spot rotated out by our own decision.
		{Minute: 0, Kind: engine.KindInstanceLaunched, Instance: "i-served", Zone: "us-west-1b", Spot: true},
		{Minute: 100, Kind: engine.KindInstanceTerminated, Instance: "i-served", Zone: "us-west-1b", Spot: true, Cause: market.TerminatedByUser},
		{Minute: 100, Kind: engine.KindBillingClose, Instance: "i-served", Zone: "us-west-1b", Spot: true, Amount: 200},
		// i-oob: ordinary market reclaim.
		{Minute: 0, Kind: engine.KindInstanceLaunched, Instance: "i-oob", Zone: "us-west-1b", Spot: true},
		{Minute: 50, Kind: engine.KindInstanceTerminated, Instance: "i-oob", Zone: "us-west-1b", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 50, Kind: engine.KindBillingClose, Instance: "i-oob", Zone: "us-west-1b", Spot: true, Amount: 70},
		// i-storm: per-victim fault marker precedes the forced reclaim.
		{Minute: 0, Kind: engine.KindInstanceLaunched, Instance: "i-storm", Zone: "eu-west-1a", Spot: true},
		{Minute: 60, Kind: engine.KindFaultInjected, Instance: "i-storm", Zone: "eu-west-1a", Fault: "reclaim-storm"},
		{Minute: 60, Kind: engine.KindInstanceTerminated, Instance: "i-storm", Zone: "eu-west-1a", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 60, Kind: engine.KindBillingClose, Instance: "i-storm", Zone: "eu-west-1a", Spot: true, Amount: 30},
		// i-bo: provider reclaim inside an open zone-blackout window.
		{Minute: 0, Kind: engine.KindInstanceLaunched, Instance: "i-bo", Zone: "ap-northeast-1a", Spot: true},
		{Minute: 70, Kind: engine.KindFaultInjected, Zone: "ap-northeast-1a", Fault: "zone-blackout", Until: 200},
		{Minute: 80, Kind: engine.KindInstanceTerminated, Instance: "i-bo", Zone: "ap-northeast-1a", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 80, Kind: engine.KindBillingClose, Instance: "i-bo", Zone: "ap-northeast-1a", Spot: true, Amount: 40},
		// A bill with no recorded termination must not lose money.
		{Minute: 90, Kind: engine.KindBillingClose, Instance: "i-ghost", Zone: "sa-east-1a", Amount: 5},
	})
	a := l.Attribution()
	want := map[[2]string]int64{
		{"us-east-1a", CauseOnDemand}:        1000,
		{"us-west-1b", CauseServed}:          200,
		{"us-west-1b", CauseOutOfBid}:        70,
		{"eu-west-1a", "reclaim-storm"}:      30,
		{"ap-northeast-1a", "zone-blackout"}: 40,
		{"sa-east-1a", CauseUnattributed}:    5,
	}
	if len(a.Cells) != len(want) {
		t.Fatalf("cells = %+v, want %d causes", a.Cells, len(want))
	}
	for _, c := range a.Cells {
		if want[[2]string{c.Pool, c.Cause}] != c.CostMicroUSD {
			t.Fatalf("cell %s/%s = %d, want %d", c.Pool, c.Cause, c.CostMicroUSD, want[[2]string{c.Pool, c.Cause}])
		}
	}
	if a.TotalCostMicroUSD != 1345 {
		t.Fatalf("total = %d, want 1345", a.TotalCostMicroUSD)
	}
}

// TestLedgerDowntimeEvidence scripts downtime spans with each kind of
// evidence and checks the cause priority and minute totals.
func TestLedgerDowntimeEvidence(t *testing.T) {
	l := NewLedger()
	publish(l, []engine.Event{
		// Span 1: out-of-bid evidence arrives while the span is open (the
		// tracker publishes the down transition first).
		{Minute: 100, Kind: engine.KindQuorumDown, Size: 2},
		{Minute: 100, Kind: engine.KindInstanceTerminated, Instance: "i-1", Zone: "us-east-1c", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 130, Kind: engine.KindQuorumUp, Size: 3},
		// Span 2: a named fault beats out-of-bid.
		{Minute: 200, Kind: engine.KindQuorumDown, Size: 2},
		{Minute: 200, Kind: engine.KindInstanceTerminated, Instance: "i-2", Zone: "us-west-2b", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 201, Kind: engine.KindFaultInjected, Instance: "i-3", Zone: "us-west-2b", Fault: "reclaim-storm"},
		{Minute: 201, Kind: engine.KindInstanceTerminated, Instance: "i-3", Zone: "us-west-2b", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 240, Kind: engine.KindQuorumUp, Size: 3},
		// Span 3: replacements still starting, nothing else wrong.
		{Minute: 300, Kind: engine.KindInstanceLaunched, Instance: "i-4", Zone: "eu-west-1a", Spot: true},
		{Minute: 300, Kind: engine.KindQuorumDown, Size: 2},
		{Minute: 310, Kind: engine.KindInstanceRunning, Instance: "i-4", Zone: "eu-west-1a", Spot: true},
		{Minute: 310, Kind: engine.KindQuorumUp, Size: 3},
	})
	// Span 4: still open at run end, no evidence at all.
	publish(l, []engine.Event{{Minute: 400, Kind: engine.KindQuorumDown, Size: 2}})
	l.CloseRun(450)
	l.CloseRun(450) // idempotent

	a := l.Attribution()
	type cell struct {
		pool, cause string
		min         int64
	}
	want := []cell{
		{"us-east-1c", CauseOutOfBid, 30},
		{"us-west-2b", "reclaim-storm", 40},
		{"", CauseStartup, 10},
		{"", CauseUnattributed, 50},
	}
	for _, w := range want {
		found := false
		for _, c := range a.Cells {
			if c.Pool == w.pool && c.Cause == w.cause {
				found = true
				if c.DownMinutes != w.min {
					t.Fatalf("cell %s/%s = %d minutes, want %d", w.pool, w.cause, c.DownMinutes, w.min)
				}
			}
		}
		if !found {
			t.Fatalf("missing cell %s/%s in %+v", w.pool, w.cause, a.Cells)
		}
	}
	if a.TotalDownMinutes != 130 {
		t.Fatalf("total downtime = %d, want 130", a.TotalDownMinutes)
	}
}

// TestLedgerQuarantineEvidence: with no event evidence, a non-healthy
// degradation stage ruling at the span's opening minute marks the
// downtime quarantine-constrained. Stages come from the event stream
// alone; a transition published later in the opening minute still
// counts, one after it does not.
func TestLedgerQuarantineEvidence(t *testing.T) {
	down := func(stages ...engine.Event) Attribution {
		l := NewLedger()
		publish(l, append(stages,
			engine.Event{Minute: 100, Kind: engine.KindQuorumDown, Size: 2},
			engine.Event{Minute: 120, Kind: engine.KindQuorumUp, Size: 3},
		))
		return l.Attribution()
	}
	stage := func(minute int64, name string) engine.Event {
		return engine.Event{Minute: minute, Kind: engine.KindStage, Fault: name}
	}
	for _, c := range []struct {
		name   string
		stages []engine.Event
		want   string
	}{
		{"degraded before", []engine.Event{stage(90, "degraded")}, CauseQuarantine},
		{"critical before", []engine.Event{stage(60, "degraded"), stage(90, "critical")}, CauseQuarantine},
		{"healed before", []engine.Event{stage(60, "degraded"), stage(90, "healthy")}, CauseUnattributed},
		{"never left healthy", nil, CauseUnattributed},
		{"degraded after", []engine.Event{stage(110, "degraded")}, CauseUnattributed},
	} {
		a := down(c.stages...)
		if len(a.Cells) != 1 || a.Cells[0].Cause != c.want || a.Cells[0].DownMinutes != 20 {
			t.Errorf("%s: attribution = %+v, want 20 min %s", c.name, a.Cells, c.want)
		}
	}

	// Same-minute ordering: the down transition comes first in the
	// stream, the decision's stage event after it.
	l := NewLedger()
	publish(l, []engine.Event{
		{Minute: 100, Kind: engine.KindQuorumDown, Size: 2},
		stage(100, "degraded"),
		{Minute: 120, Kind: engine.KindQuorumUp, Size: 3},
	})
	if a := l.Attribution(); len(a.Cells) != 1 || a.Cells[0].Cause != CauseQuarantine {
		t.Errorf("same-minute stage: attribution = %+v", a.Cells)
	}

	// Spans are no evidence: WatchStages is a no-op.
	rec := NewRecorder(1)
	rec.Begin(90).Emit(Span{Kind: SpanStage, Outcome: "degraded", Detail: "from healthy"})
	l = NewLedger()
	l.WatchStages(rec)
	publish(l, []engine.Event{
		{Minute: 100, Kind: engine.KindQuorumDown, Size: 2},
		{Minute: 120, Kind: engine.KindQuorumUp, Size: 3},
	})
	if a := l.Attribution(); len(a.Cells) != 1 || a.Cells[0].Cause != CauseUnattributed {
		t.Errorf("stage span without stage event: attribution = %+v", a.Cells)
	}
}

// TestLedgerResizeAttribution scripts a gradual-resize window: the
// detach's user-termination bills to the resize (by instance ID and by
// persistent-request ID alike), downtime inside the window with no
// stronger evidence attributes to the resize, and the window closes at
// the settle step.
func TestLedgerResizeAttribution(t *testing.T) {
	l := NewLedger()
	publish(l, []engine.Event{
		{Minute: 10, Kind: engine.KindResizeTarget, Size: 8},
		// Detach by instance ID: the user-termination is resize cost.
		{Minute: 12, Kind: engine.KindResizeStep, Fault: "detach", Instance: "i-old", Zone: "us-east-1a", Size: 7},
		{Minute: 12, Kind: engine.KindInstanceTerminated, Instance: "i-old", Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByUser},
		{Minute: 12, Kind: engine.KindBillingClose, Instance: "i-old", Zone: "us-east-1a", Spot: true, Amount: 80},
		// Detach by persistent request: the termination event carries the
		// request, not the step's (empty) instance ID.
		{Minute: 14, Kind: engine.KindResizeStep, Fault: "detach", Request: "r-1", Zone: "us-west-1b", Size: 6},
		{Minute: 14, Kind: engine.KindInstanceTerminated, Instance: "i-req", Request: "r-1", Zone: "us-west-1b", Spot: true, Cause: market.TerminatedByUser},
		{Minute: 14, Kind: engine.KindBillingClose, Instance: "i-req", Zone: "us-west-1b", Spot: true, Amount: 20},
		// Downtime inside the window, no stronger evidence: resize cause.
		{Minute: 20, Kind: engine.KindQuorumDown, Size: 5},
		{Minute: 25, Kind: engine.KindQuorumUp, Size: 6},
		{Minute: 30, Kind: engine.KindResizeStep, Fault: "settled", Size: 6},
		// After settle, a bare span is unattributed again.
		{Minute: 40, Kind: engine.KindQuorumDown, Size: 5},
		{Minute: 42, Kind: engine.KindQuorumUp, Size: 6},
	})
	a := l.Attribution()
	type cell struct {
		pool, cause string
		cost        int64
		min         int64
	}
	want := []cell{
		{"us-east-1a", CauseResize, 80, 0},
		{"us-west-1b", CauseResize, 20, 0},
		{"", CauseResize, 0, 5},
		{"", CauseUnattributed, 0, 2},
	}
	if len(a.Cells) != len(want) {
		t.Fatalf("cells = %+v, want %d", a.Cells, len(want))
	}
	for _, w := range want {
		found := false
		for _, c := range a.Cells {
			if c.Pool == w.pool && c.Cause == w.cause {
				found = true
				if c.CostMicroUSD != w.cost || c.DownMinutes != w.min {
					t.Fatalf("cell %s/%s = (%d, %d), want (%d, %d)", w.pool, w.cause, c.CostMicroUSD, c.DownMinutes, w.cost, w.min)
				}
			}
		}
		if !found {
			t.Fatalf("missing cell %s/%s in %+v", w.pool, w.cause, a.Cells)
		}
	}
	if a.TotalCostMicroUSD != 100 || a.TotalDownMinutes != 7 {
		t.Fatalf("totals = (%d, %d), want (100, 7)", a.TotalCostMicroUSD, a.TotalDownMinutes)
	}
}

// TestLedgerBlackoutWindowExpiry: a provider reclaim after the
// blackout window closed is ordinary out-of-bid again.
func TestLedgerBlackoutWindowExpiry(t *testing.T) {
	l := NewLedger()
	publish(l, []engine.Event{
		{Minute: 0, Kind: engine.KindFaultInjected, Zone: "us-east-1a", Fault: "zone-blackout", Until: 50},
		{Minute: 60, Kind: engine.KindInstanceTerminated, Instance: "i-1", Zone: "us-east-1a", Spot: true, Cause: market.TerminatedByProvider},
		{Minute: 60, Kind: engine.KindBillingClose, Instance: "i-1", Zone: "us-east-1a", Spot: true, Amount: 10},
	})
	a := l.Attribution()
	if len(a.Cells) != 1 || a.Cells[0].Cause != CauseOutOfBid {
		t.Fatalf("expired blackout attribution = %+v", a.Cells)
	}
}
