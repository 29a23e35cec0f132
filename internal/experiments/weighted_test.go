package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestWeightedVotingNeedsAMarketPastTraining: the decision is made at the
// end of the training weeks, so a run with no replay weeks has no minute
// to decide at — an error, not a panic in the provider.
func TestWeightedVotingNeedsAMarketPastTraining(t *testing.T) {
	e := quick()
	e.ReplayWeeks = 0
	if _, err := e.WeightedVotingAnalysis(); err == nil || !strings.Contains(err.Error(), "outside the market") {
		t.Fatalf("err = %v, want the decision minute outside the market", err)
	}
}

func TestWeightedVotingAnalysis(t *testing.T) {
	rep, err := quick().WeightedVotingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Zones) < 5 {
		t.Fatalf("analysis over %d zones", len(rep.Zones))
	}
	if len(rep.FailureProbabilities) != len(rep.Zones) {
		t.Fatal("probability vector length mismatch")
	}
	for i, fp := range rep.FailureProbabilities {
		if fp < 0 || fp > 0.5 {
			t.Fatalf("zone %s FP %v implausible", rep.Zones[i], fp)
		}
	}
	// Weighted voting is availability-optimal: it can only match or
	// beat simple majority.
	if rep.WeightedAvailability < rep.MajorityAvailability-1e-12 {
		t.Fatalf("weighted %v below majority %v", rep.WeightedAvailability, rep.MajorityAvailability)
	}
	if rep.GapDowntimeSecMonth < -1e-6 {
		t.Fatalf("negative downtime gap %v", rep.GapDowntimeSecMonth)
	}
	// Jupiter's equalized targets keep both rules highly available.
	if rep.MajorityAvailability < 0.999 {
		t.Fatalf("majority availability %v", rep.MajorityAvailability)
	}
	out := renderWeightedVoting(rep)
	if !strings.Contains(out, "majority availability") {
		t.Fatal("rendering incomplete")
	}
}

func TestWriteSweepCSV(t *testing.T) {
	rows := []SweepRow{
		{Service: "lock", Strategy: "Jupiter", IntervalHours: 6, Availability: 0.9999, OutOfBid: 3, MeanGroupSize: 5.2},
	}
	var buf bytes.Buffer
	if err := writeSweepCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "service,strategy") || !strings.Contains(out, "lock,Jupiter,6") {
		t.Fatalf("CSV output %q", out)
	}
}

func TestAblationEstimators(t *testing.T) {
	rows, err := quick().AblationEstimators()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	seen := map[string]SweepRow{}
	for _, r := range rows {
		seen[r.Strategy] = r
		if r.Cost <= 0 {
			t.Errorf("%s cost %v", r.Strategy, r.Cost)
		}
	}
	// The one-step estimate applies one minute's risk to the whole
	// interval: it bids lower and loses availability.
	for _, svc := range []string{"lock", "storage"} {
		for _, h := range []string{"1h", "6h", "12h"} {
			for _, mode := range []string{"interval", "stationary", "one-step"} {
				if _, ok := seen[svc+" "+h+" "+mode]; !ok {
					t.Fatalf("%s %s %s missing", svc, h, mode)
				}
			}
			interval, oneStep := seen[svc+" "+h+" interval"], seen[svc+" "+h+" one-step"]
			if oneStep.Cost >= interval.Cost || oneStep.Availability >= interval.Availability {
				t.Errorf("%s %s: one-step %v at %v, interval %v at %v; want one-step cheaper and less available",
					svc, h, oneStep.Cost, oneStep.Availability, interval.Cost, interval.Availability)
			}
		}
	}
	if variantTable("estimators", "estimator", 22, "out-of-bid")(rows) == "" {
		t.Fatal("empty ablation rendering")
	}
}

func TestAblationAdaptiveInterval(t *testing.T) {
	rows, err := quick().AblationAdaptiveInterval()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d adaptive rows", len(rows))
	}
	var adaptive *SweepRow
	for i := range rows {
		if rows[i].Strategy == "adaptive" {
			adaptive = &rows[i]
		}
	}
	if adaptive == nil {
		t.Fatal("adaptive variant missing")
	}
	if adaptive.Availability < 0.99 {
		t.Fatalf("adaptive availability %v", adaptive.Availability)
	}
	if variantTable("adaptive", "variant", 12, "decisions")(rows) == "" {
		t.Fatal("empty adaptive rendering")
	}
}
