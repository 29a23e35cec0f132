package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
	if got := plan.TargetAt(601); float64(got)*nodeRPS*upFraction < 9000 {
		t.Errorf("target %d at minute 601 does not cover the flash crowd", got)
	}
	// Scale-down waits out the hold: still big right after the crowd...
	upTarget := plan.TargetAt(601)
	// (cooldown runs from the up-scale at 600, so it expires at 660)
	if got := plan.TargetAt(630 + holdMinutes/4); got != upTarget {
		t.Errorf("target dropped to %d inside the cooldown, want hold at %d", got, upTarget)
	}
	// ...and back at the floor once the cooldown expires.
	if got := plan.TargetAt(600 + holdMinutes + 1); got != 5 {
		t.Errorf("target %d after cooldown, want back at the 5-node floor", got)
	}
}

func TestPlanHysteresisNoFlap(t *testing.T) {
	a := DefaultAutoscaler(4)
	// Oscillate inside the band: between down (45%) and up (75%) of a
	// 5-node group's capacity, the target must never move once set.
	base := float64(5 * nodeRPS)
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
	for _, n := range []int{1, 2, 3, 5, 8} {
		plan, err := DefaultAutoscaler(n).Plan(step(t, 1000, 300, 100, 1e6))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range plan.Steps {
			if s.Target < n || s.Target > 3*n {
				t.Errorf("base %d: plan step %+v outside [%d, %d]", n, s, n, 3*n)
			}
		}
		if got := plan.TargetAt(0); got != n {
			t.Errorf("base %d: light demand -> target %d, want the floor", n, got)
		}
		if got := plan.TargetAt(500); got != 3*n {
			t.Errorf("base %d: unbounded demand -> target %d, want the %d-node cap", n, got, 3*n)
		}
	}
}

// TestPlanDeterministicFromSeed: a seeded trace and its plan come out
// the same every time, and byte for byte as they did when the
// generator's and the autoscaler's constants were still configuration
// fields with these values: the sha256 of the trace's CSV and of the
// default five-node plan's steps are pinned.
func TestPlanDeterministicFromSeed(t *testing.T) {
	gen := func() (*Trace, *Plan) {
		tr, err := Generate(GenConfig{Seed: 42, Start: 0, End: 7 * 24 * 60})
		if err != nil {
			t.Fatal(err)
		}
		p, err := DefaultAutoscaler(5).Plan(tr)
		if err != nil {
			t.Fatal(err)
		}
		return tr, p
	}
	tr, a := gen()
	if _, b := gen(); !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
	var csv, steps bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Steps {
		fmt.Fprintf(&steps, "%d,%d\n", s.Minute, s.Target)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"generated CSV", csv.Bytes(), "896789c2876877a57e31aa5f2d3c837266cf471d2f506c97c5f6aa10bdf2c5e0"},
		{"plan steps", steps.Bytes(), "2fc952f597b4f8f8db912f147c425ee9f974227d354fc56cc19f741e54bf1f66"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// planReference is the oracle of Plan: the same controller, reading
// the rate with RPSAt's binary search at every minute.
func planReference(a Autoscaler, t *Trace) *Plan {
	floor, ceiling := a.BaseNodes, 3*a.BaseNodes
	clamp := func(n int) int {
		if n < floor {
			n = floor
		}
		if n > ceiling {
			n = ceiling
		}
		return n
	}
	sized := func(rps float64) int {
		n := floor
		for float64(n)*nodeRPS*upFraction < rps {
			n++
			if n >= ceiling {
				break
			}
		}
		return clamp(n)
	}
	cur := clamp(sized(t.RPSAt(t.Start)))
	plan := &Plan{Start: t.Start, End: t.End, Steps: []TargetStep{{Minute: t.Start, Target: cur}}}
	lastChange := t.Start
	for m := t.Start + 1; m < t.End; m++ {
		rps := t.RPSAt(m)
		capacity := float64(cur) * nodeRPS
		want := cur
		switch {
		case rps > capacity*upFraction:
			want = sized(rps)
		case rps < capacity*downFraction && m-lastChange >= holdMinutes:
			want = sized(rps)
			if want >= cur {
				want = cur
			}
		}
		if want != cur {
			cur = want
			lastChange = m
			plan.Steps = append(plan.Steps, TargetStep{Minute: m, Target: cur})
		}
	}
	return plan
}

// TestPlanMatchesPerMinuteReference: the forward cursor plans exactly
// what reading RPSAt every minute plans — on a trace whose first point
// comes after Start, a single-point trace, points past End, generated
// diurnal traces and the same under a flash-crowd overlay.
func TestPlanMatchesPerMinuteReference(t *testing.T) {
	gen, err := Generate(GenConfig{Seed: 9, Start: 0, End: 7 * 24 * 60})
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*Trace{
		"first point after start": mustTrace(t, 0, 3000, []Point{{400, 9000}, {700, 2000}, {1500, 6500}}),
		"single point":            mustTrace(t, 0, 3000, []Point{{0, 7000}}),
		"single late point":       mustTrace(t, 100, 3000, []Point{{2000, 100}}),
		"points past end":         mustTrace(t, 0, 1000, []Point{{0, 3000}, {600, 9000}, {1200, 100}, {1500, 8000}}),
		"generated":               gen,
		"flash crowd":             gen.Scale(2000, 2240, 3.5).Scale(5000, 5100, 0.2),
	}
	for name, tr := range traces {
		for _, n := range []int{1, 2, 5, 9} {
			a := DefaultAutoscaler(n)
			got, err := a.Plan(tr)
			if err != nil {
				t.Fatal(err)
			}
			if want := planReference(a, tr); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, base %d: plan %+v, want %+v", name, n, got.Steps, want.Steps)
			}
		}
	}
}
