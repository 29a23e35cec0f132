package telemetry

import (
	"testing"

	"repro/internal/trace"
)

func TestRecordQuarantinedRows(t *testing.T) {
	reg := NewRegistry()
	rep := &trace.ReadReport{
		Quarantined: 3,
		Reasons: map[string]int{
			trace.ReasonNaNPrice:  2,
			trace.ReasonBadMinute: 1,
		},
	}
	RecordQuarantinedRows(reg, "prices.csv", rep)

	snap := reg.Snapshot()
	for reason, want := range map[string]float64{"nan-price": 2, "bad-minute": 1} {
		if _, s, ok := lookup(snap, "jupiter_trace_rows_quarantined_total", "prices.csv", reason); !ok || s.Value != want {
			t.Errorf("quarantined rows for %s = %+v (found %v), want %g", reason, s, ok, want)
		}
	}
}

// TestRecordQuarantinedRowsNoOps: nil registry, nil report, and a clean
// report must neither panic nor register an empty metric family.
func TestRecordQuarantinedRowsNoOps(t *testing.T) {
	RecordQuarantinedRows(nil, "x", &trace.ReadReport{Quarantined: 1, Reasons: map[string]int{"r": 1}})

	reg := NewRegistry()
	RecordQuarantinedRows(reg, "x", nil)
	RecordQuarantinedRows(reg, "x", &trace.ReadReport{})
	if snap := reg.Snapshot(); len(snap.Families) != 0 {
		t.Fatalf("clean reads registered a metric family: %+v", snap)
	}
}
