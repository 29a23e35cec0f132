package workload

import (
	"reflect"
	"testing"
)

// flat builds a two-point step trace: rate a until minute step, rate b
// after.
func step(t *testing.T, end, at int64, a, b float64) *Trace {
	t.Helper()
	return mustTrace(t, 0, end, []Point{{0, a}, {at, b}})
}

func TestPlanConstantWorkload(t *testing.T) {
	a := DefaultAutoscaler(5)
	plan, err := a.Plan(mustTrace(t, 0, 10*24*60, []Point{{0, 3000}}))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Holds(5) {
		t.Fatalf("flat 3000 rps under a 5-node floor: plan %+v, want the floor throughout", plan.Steps)
	}
	if plan.Holds(6) {
		t.Fatal("a plan holding 5 nodes also holds 6")
	}
}

func TestPlanFlashCrowdStepResponse(t *testing.T) {
	a := DefaultAutoscaler(5)
	// 3000 rps cruising, a 9000 rps flash crowd over minutes [600, 630),
	// back to 3000 after — shorter than the one-hour cooldown.
	tr := mustTrace(t, 0, 2000, []Point{{0, 3000}, {600, 9000}, {630, 3000}})
	plan, err := a.Plan(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Scale-up is immediate: the minute the crowd lands, the target
	// must already cover it at <= 75% utilization.
	if got := plan.TargetAt(601); float64(got)*a.NodeRPS*a.UpFraction < 9000 {
		t.Errorf("target %d at minute 601 does not cover the flash crowd", got)
	}
	// Scale-down waits out the hold: still big right after the crowd...
	upTarget := plan.TargetAt(601)
	// (cooldown runs from the up-scale at 600, so it expires at 660)
	if got := plan.TargetAt(630 + a.HoldMinutes/4); got != upTarget {
		t.Errorf("target dropped to %d inside the cooldown, want hold at %d", got, upTarget)
	}
	// ...and back at the floor once the cooldown expires.
	if got := plan.TargetAt(600 + a.HoldMinutes + 1); got != 5 {
		t.Errorf("target %d after cooldown, want back at the 5-node floor", got)
	}
}

func TestPlanHysteresisNoFlap(t *testing.T) {
	a := DefaultAutoscaler(4)
	// Oscillate inside the band: between down (45%) and up (75%) of a
	// 5-node group's capacity, the target must never move once set.
	base := 5 * a.NodeRPS
	var points []Point
	for m := int64(0); m < 2000; m += 10 {
		r := base * 0.6
		if (m/10)%2 == 0 {
			r = base * 0.7
		}
		points = append(points, Point{Minute: m, RPS: r})
	}
	plan, err := a.Plan(mustTrace(t, 0, 2000, points))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) > 2 {
		t.Fatalf("in-band oscillation produced %d plan steps: %+v", len(plan.Steps), plan.Steps)
	}
}

func TestPlanRespectsBounds(t *testing.T) {
	a := Autoscaler{NodeRPS: 1000, MinNodes: 3, MaxNodes: 6, UpFraction: 0.75, DownFraction: 0.45, HoldMinutes: 30}
	plan, err := a.Plan(step(t, 1000, 300, 100, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if s.Target < 3 || s.Target > 6 {
			t.Errorf("plan step %+v outside [3, 6]", s)
		}
	}
	if got := plan.TargetAt(500); got != 6 {
		t.Errorf("unbounded demand -> target %d, want the 6-node cap", got)
	}
}

func TestPlanDeterministicFromSeed(t *testing.T) {
	gen := func() *Plan {
		tr, err := Generate(GenConfig{Seed: 42, Start: 0, End: 7 * 24 * 60})
		if err != nil {
			t.Fatal(err)
		}
		p, err := DefaultAutoscaler(5).Plan(tr)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if a, b := gen(), gen(); !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
}

func TestPlanRejectsBadConfig(t *testing.T) {
	tr := mustTrace(t, 0, 100, []Point{{0, 1000}})
	bad := []Autoscaler{
		{NodeRPS: 0},
		{NodeRPS: 1000, MinNodes: 5, MaxNodes: 3},
		{NodeRPS: 1000, UpFraction: 0.5, DownFraction: 0.6},
		{NodeRPS: 1000, UpFraction: 1.5},
	}
	for i, a := range bad {
		if _, err := a.Plan(tr); err == nil {
			t.Errorf("config %d accepted: %+v", i, a)
		}
	}
}
