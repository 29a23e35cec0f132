package replay

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// flatWorkload builds a constant-rate trace over the replay week whose
// autoscaler plan never leaves lockSpec's BaseNodes.
func flatWorkload(t *testing.T, start, end int64) *workload.Trace {
	t.Helper()
	wl, err := workload.New(start, end, []workload.Point{{Minute: start, RPS: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// crowdWorkload builds a trace cruising at 3000 rps with a flash crowd
// of the given rate over [start+from, start+from+dur).
func crowdWorkload(t *testing.T, start, end, from, dur int64, peak float64) *workload.Trace {
	t.Helper()
	wl, err := workload.New(start, end, []workload.Point{
		{Minute: start, RPS: 3000},
		{Minute: start + from, RPS: peak},
		{Minute: start + from + dur, RPS: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestFlatWorkloadBitIdenticalToFixedN pins the arming rule: a
// workload whose plan holds BaseNodes forever must leave the run
// deeply equal to one with no workload at all — the fixed-n path.
func TestFlatWorkloadBitIdenticalToFixedN(t *testing.T) {
	set := genTraces(t, 21, 1, market.M1Small)
	start := 13 * week
	for _, k := range kernels {
		base := Config{
			Traces: set, Start: start,
			Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 1, Portion: 0.15},
			IntervalMinutes: 180, Seed: 21,
			InjectHardwareFailures: true,
		}
		fixed, err := k.run(base)
		if err != nil {
			t.Fatal(err)
		}
		flat := base
		flat.Workload = flatWorkload(t, start, set.End)
		flat.Strategy = strategy.Extra{ExtraNodes: 1, Portion: 0.15}
		got, err := k.run(flat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fixed, got) {
			t.Fatalf("%s kernel: flat workload diverges from fixed-n:\nfixed: %+v\nflat:  %+v", k.name, fixed, got)
		}
	}
}

// TestKernelsAgreeAutoscaled verifies the two kernels stay bit-identical
// under gradual resize: a flash-crowd workload (and, in the chaos case,
// the flash-crowd injector rewriting it) must produce deeply equal
// Results from the event and polling kernels.
func TestKernelsAgreeAutoscaled(t *testing.T) {
	set := genTraces(t, 31, 1, market.M1Small)
	start := 13 * week
	crowd := crowdWorkload(t, start, set.End, 1500, 240, 9000)
	flashScenario, ok := chaos.Builtin("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd builtin missing")
	}
	cases := []struct {
		name string
		mk   func() strategy.Strategy
		sc   *chaos.Scenario
		wl   *workload.Trace
	}{
		{"jupiter-crowd", func() strategy.Strategy { return core.New() }, nil, crowd},
		{"extra-crowd-injected", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 1, Portion: 0.15} }, nil, crowd},
		{"extra-chaos-flash-crowd", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0.2} }, &flashScenario, flatWorkload(t, start, set.End)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var results [2]*Result
			for i, k := range kernels {
				res, err := k.run(Config{
					Traces: set, Start: start,
					Spec: lockSpec(), Strategy: tc.mk(),
					IntervalMinutes: 180, Seed: 31,
					InjectHardwareFailures: tc.name == "extra-crowd-injected",
					Chaos:                  tc.sc, Workload: tc.wl,
				})
				if err != nil {
					t.Fatal(err)
				}
				results[i] = res
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("kernels diverge under autoscaling:\nevent:   %+v\npolling: %+v", results[0], results[1])
			}
		})
	}
}

// TestResizeLifecycleThroughFlashCrowd drives a full replay through a
// flash crowd and checks the resize state machine surfaces in the
// event stream: a raised target, an install after the startup delay,
// gated detaches on the way back down, and a settled drain — with the
// fleet actually growing past the fixed deployment size.
func TestResizeLifecycleThroughFlashCrowd(t *testing.T) {
	set := genTraces(t, 17, 1, market.M1Small)
	start := 13 * week
	var targets, installs, detaches, settles, aborts int
	maxTarget := 0
	obs := &engine.Hooks{
		Decision: func(e engine.Event) {
			switch e.Kind {
			case engine.KindResizeTarget:
				targets++
				if e.Size > maxTarget {
					maxTarget = e.Size
				}
			case engine.KindResizeStep:
				switch e.Fault {
				case phaseInstall:
					installs++
				case phaseDetach:
					detaches++
				case phaseSettled:
					settles++
				case phaseAbort:
					aborts++
				}
			}
		},
	}
	res, err := Run(Config{
		Traces: set, Start: start,
		Spec: lockSpec(), Strategy: core.New(),
		IntervalMinutes: 180, Seed: 17,
		Workload:  crowdWorkload(t, start, set.End, 1500, 240, 9000),
		Observers: []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("flash crowd produced no resize-target events")
	}
	if maxTarget <= lockSpec().BaseNodes {
		t.Fatalf("max resize target %d never exceeded BaseNodes %d", maxTarget, lockSpec().BaseNodes)
	}
	if installs == 0 {
		t.Error("no install step: scale-up never landed")
	}
	if detaches == 0 {
		t.Error("no detach step: scale-down never drained")
	}
	if settles == 0 {
		t.Error("no settled step: no resize cycle completed")
	}
	if res.MaxGroupSize <= lockSpec().BaseNodes {
		t.Errorf("max group size %d never exceeded BaseNodes %d", res.MaxGroupSize, lockSpec().BaseNodes)
	}
	t.Logf("targets=%d installs=%d detaches=%d settles=%d aborts=%d maxTarget=%d avail=%.5f",
		targets, installs, detaches, settles, aborts, maxTarget, res.Availability)
}

// probedStrategy exposes near-zero failure probabilities for every
// pool, isolating the quorum-floor gate from the Eq. 10 gate in the
// detach tests below.
type probedStrategy struct{ strategy.OnDemand }

func (probedStrategy) LastBidFailureProbabilities() map[string]float64 {
	fps := map[string]float64{}
	for _, z := range market.ExperimentZones() {
		fps[z] = 1e-12
	}
	return fps
}

// detachFixture builds a run with n on-demand members past their
// startup delay, terminating the zones named dead.
func detachFixture(t *testing.T, n int, dead ...int) (*run, []string) {
	t.Helper()
	set := genTraces(t, 7, 1, market.M1Small)
	p := cloud.NewProvider(set, cloud.Config{Seed: 7})
	start := 13 * week
	p.AdvanceTo(start)
	spec := lockSpec()
	r := &run{
		cfg:      Config{Spec: spec, Strategy: probedStrategy{}},
		provider: p,
		res:      &Result{},
	}
	zones := market.ExperimentZones()
	for i := 0; i < n; i++ {
		id, err := p.RequestOnDemand(zones[i], spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		// Flag the members as spot so the Eq. 10 gate consults the
		// strategy's probed failure estimates (on-demand members always
		// get the fixed on-demand probability).
		r.fleet = append(r.fleet, member{zone: zones[i], id: id})
	}
	p.AdvanceTo(start + 20) // past the worst startup delay
	for _, i := range dead {
		if err := p.Terminate(r.fleet[i].id); err != nil {
			t.Fatal(err)
		}
	}
	return r, zones
}

// TestDetachAllowedAtExactQuorum is the off-by-one regression: a
// detach that leaves the alive capacity EXACTLY at the quorum floor is
// still safe and must proceed — the floor gate is strict-less-than.
// With shardUnits = UnitsPerNode the quorum of a 3-member rest (one of
// them dead) is (48+17)/2 = 32 units: exactly the two alive members.
func TestDetachAllowedAtExactQuorum(t *testing.T) {
	// Four members, one dead; detaching an alive one leaves 2 alive of
	// 3, and 2·16 == QuorumUnits(3·16) exactly.
	r, zones := detachFixture(t, 4, 3)
	rz := newResizer(r, &workload.Plan{Start: 0, End: 1, Steps: []workload.TargetStep{{Target: 3}}})
	rz.outgoing = map[string]bool{zones[0]: true}

	rest := r.fleet[1:]
	units := fleetUnits(rest, r.cfg.Spec, nil)
	total := 0
	for _, u := range units {
		total += u
	}
	if alive := 2 * market.UnitsPerNode; alive != r.cfg.Spec.QuorumUnits(total) {
		t.Fatalf("fixture broken: post-detach alive %d units, quorum %d — not the exact-quorum case",
			alive, r.cfg.Spec.QuorumUnits(total))
	}
	if err := rz.detachOne(r.provider.Now()); err != nil {
		t.Fatalf("exact-quorum detach refused: %v", err)
	}
	if len(r.fleet) != 3 {
		t.Fatalf("fleet size %d after detach, want 3", len(r.fleet))
	}
	if len(rz.outgoing) != 0 {
		t.Fatalf("outgoing not drained: %v", rz.outgoing)
	}
}

// TestDetachRefusedBelowQuorumFloor: with one member already dead,
// detaching an alive member would leave the alive capacity under the
// quorum floor; the step must return the typed error and hold size.
func TestDetachRefusedBelowQuorumFloor(t *testing.T) {
	// Three members, one dead: detaching an alive one leaves 1 alive
	// of 2, under quorum(2) = 2 members.
	r, zones := detachFixture(t, 3, 2)
	rz := newResizer(r, &workload.Plan{Start: 0, End: 1, Steps: []workload.TargetStep{{Target: 2}}})
	rz.outgoing = map[string]bool{zones[0]: true}

	err := rz.detachOne(r.provider.Now())
	var qf *QuorumFloorError
	if !errors.As(err, &qf) {
		t.Fatalf("got %v, want *QuorumFloorError", err)
	}
	if qf.Target != 0 {
		t.Fatalf("refusal %+v came from the availability gate, want the quorum floor", qf)
	}
	if qf.AliveUnits >= qf.QuorumUnits {
		t.Fatalf("refusal %+v claims alive >= floor", qf)
	}
	if len(r.fleet) != 3 {
		t.Fatalf("refused detach still shrank the fleet to %d", len(r.fleet))
	}
	if !rz.outgoing[zones[0]] {
		t.Fatal("refused detach drained the outgoing queue")
	}

	// act() must translate the refusal into a hold, not a run error.
	rz.nextDetach = r.provider.Now()
	if err := rz.act(r.provider.Now(), engine.NoMinute); err != nil {
		t.Fatalf("act surfaced the hold as a run error: %v", err)
	}
	if rz.nextDetach <= r.provider.Now() {
		t.Fatal("hold did not push the next detach attempt into the future")
	}
	if len(r.fleet) != 3 {
		t.Fatalf("hold still shrank the fleet to %d", len(r.fleet))
	}
}

// TestDetachRefusedBelowAvailabilityTarget: the Eq. 10 gate. A fleet
// of BaseNodes on-demand members sits exactly at the spec target;
// shrinking below it drops the predicted availability under the bound
// and must be refused with the evaluation attached.
func TestDetachRefusedBelowAvailabilityTarget(t *testing.T) {
	r, zones := detachFixture(t, 5)
	// Real on-demand probabilities, not the probed near-zeros.
	r.cfg.Strategy = strategy.OnDemand{}
	rz := newResizer(r, &workload.Plan{Start: 0, End: 1, Steps: []workload.TargetStep{{Target: 4}}})
	rz.outgoing = map[string]bool{zones[4]: true}

	err := rz.detachOne(r.provider.Now())
	var qf *QuorumFloorError
	if !errors.As(err, &qf) {
		t.Fatalf("got %v, want *QuorumFloorError", err)
	}
	if qf.Target == 0 || qf.Availability >= qf.Target {
		t.Fatalf("refusal %+v does not carry a failed Eq. 10 evaluation", qf)
	}
	if len(r.fleet) != 5 {
		t.Fatalf("refused detach still shrank the fleet to %d", len(r.fleet))
	}
}
