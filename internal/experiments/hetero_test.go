package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/market"
)

// heteroTypes is the 4-type catalog of the heterogeneous acceptance
// sweep: the m1.small base plus three siblings of different shapes.
func heteroTypes() []market.InstanceType {
	return []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}
}

// TestHeteroSweepNotWorseThanZoneOnly is the pool framework's
// acceptance gate: over the 4-type × 17-zone chaos-free market, the
// capacity-weighted planner must match or beat the zone-only planner —
// availability no lower, cost no higher — at every swept interval.
// The guarantee comes from construction (the zone-only selection stays
// in the candidate race, and a heterogeneous portfolio only displaces
// it when it dominates on both planned and expected cost), and this
// test pins it end to end through the replay.
func TestHeteroSweepNotWorseThanZoneOnly(t *testing.T) {
	spec := LockSpec()
	for _, hours := range []int64{1, 3, 6} {
		ez := QuickEnv()
		setz, err := ez.Traces(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		rz, err := ez.replayOne(setz, spec, core.New(), hours)
		if err != nil {
			t.Fatal(err)
		}

		eh := QuickEnv()
		eh.Types = heteroTypes()
		seth, err := eh.Traces(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(seth.Zones()), 4*len(market.ExperimentZones()); got != want {
			t.Fatalf("heterogeneous market has %d pools, want %d (4 types x 17 zones)", got, want)
		}
		rh, err := eh.replayOne(seth, spec, core.New(), hours)
		if err != nil {
			t.Fatal(err)
		}

		if rh.Cost > rz.Cost {
			t.Errorf("interval %dh: heterogeneous cost %v exceeds zone-only %v", hours, rh.Cost, rz.Cost)
		}
		if rh.Availability < rz.Availability {
			t.Errorf("interval %dh: heterogeneous availability %.6f below zone-only %.6f",
				hours, rh.Availability, rz.Availability)
		}
	}
}

// TestHeteroSweepRunsFullMatrix exercises the full sweep machinery over
// the heterogeneous market: every (strategy, interval) cell completes
// and Jupiter still meets the Equation 10 availability constraint.
func TestHeteroSweepRunsFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full heterogeneous sweep is slow")
	}
	env := QuickEnv()
	env.Types = heteroTypes()
	env.Jobs = 4
	rows, err := env.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SweepIntervals)*4 {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), len(SweepIntervals)*4)
	}
	target := LockSpec().TargetAvailability()
	for _, r := range rows {
		if strings.HasPrefix(r.Strategy, "Jupiter") && r.Availability < target {
			t.Errorf("%s at %dh: availability %.6f below target %.7f",
				r.Strategy, r.IntervalHours, r.Availability, target)
		}
	}
}

// TestEnvConstraintsPropagate: Env-level shape constraints reach the
// replayed spec and an unsatisfiable one fails the sweep loudly.
func TestEnvConstraintsPropagate(t *testing.T) {
	env := QuickEnv()
	env.MinVCPU = 1024
	spec := env.applyConstraints(LockSpec())
	if spec.MinVCPU != 1024 {
		t.Fatalf("constraint not applied: %+v", spec)
	}
	if market.ShapeSatisfies(market.M1Small, spec.MinVCPU, spec.MinMemGiB) {
		t.Fatal("m1.small cannot satisfy 1024 vCPUs")
	}
}
