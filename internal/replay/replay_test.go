package replay

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

const week = int64(7 * 24 * 60)

func lockSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}
}

// genTraces builds a trace set with a 13-week training prefix plus the
// given number of replay weeks.
func genTraces(t testing.TB, seed uint64, replayWeeks int64, it market.InstanceType) *trace.Set {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: it,
		Zones: market.ExperimentZones(),
		Start: 0, End: (13 + replayWeeks) * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestReplayBaselineCostMatchesOnDemandRate(t *testing.T) {
	set := genTraces(t, 1, 1, market.M1Small)
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 instances at the cheapest tier ($0.044) for ~a week.
	hours := market.Money((set.End - 1 - 13*week) / 60)
	floor := market.FromDollars(0.044) * 5 * (hours - 2)
	ceil := market.FromDollars(0.044) * 5 * (hours + 3)
	if res.Cost < floor || res.Cost > ceil {
		t.Fatalf("baseline cost %v outside [%v, %v]", res.Cost, floor, ceil)
	}
	if res.Availability < 0.999 {
		t.Fatalf("baseline availability %v (no failure injection!)", res.Availability)
	}
	if res.OutOfBid != 0 {
		t.Fatalf("baseline had %d out-of-bid terminations", res.OutOfBid)
	}
}

func TestReplayJupiterBeatsBaselineOnCost(t *testing.T) {
	// The headline shape: Jupiter's cost is a small fraction of the
	// on-demand baseline at the same availability level.
	set := genTraces(t, 2, 2, market.M1Small)
	base, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	jup, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: core.New(),
		IntervalMinutes: 60, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jup.Cost >= base.Cost/2 {
		t.Fatalf("Jupiter cost %v not well below baseline %v", jup.Cost, base.Cost)
	}
	if jup.Availability < 0.999 {
		t.Fatalf("Jupiter availability %v below service level", jup.Availability)
	}
	if jup.SpotLaunch == 0 {
		t.Fatal("Jupiter never launched a spot instance")
	}
}

func TestReplayExtraZeroMarginFailsMore(t *testing.T) {
	// Extra(0, 0.1) bids barely above spot: it must suffer materially
	// more out-of-bid terminations than Jupiter on the same trace.
	set := genTraces(t, 3, 2, market.M1Small)
	ex, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.1},
		IntervalMinutes: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jup, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: core.New(),
		IntervalMinutes: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.OutOfBid+ex.FailedRequests <= jup.OutOfBid+jup.FailedRequests {
		t.Fatalf("Extra(0,0.1) failures %d+%d not above Jupiter's %d+%d",
			ex.OutOfBid, ex.FailedRequests, jup.OutOfBid, jup.FailedRequests)
	}
	if ex.Availability > jup.Availability {
		t.Fatalf("Extra availability %v above Jupiter %v", ex.Availability, jup.Availability)
	}
}

func TestReplayAccountsEveryMinute(t *testing.T) {
	set := genTraces(t, 4, 1, market.M1Small)
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 180, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := set.End - 1 - 13*week
	if res.TotalMinutes != want {
		t.Fatalf("accounted %d minutes, want %d", res.TotalMinutes, want)
	}
	wantDecisions := int(want/180) + 1
	if res.Decisions < wantDecisions-1 || res.Decisions > wantDecisions+1 {
		t.Fatalf("decisions = %d, want ~%d", res.Decisions, wantDecisions)
	}
}

func TestReplayConfigValidation(t *testing.T) {
	set := genTraces(t, 5, 1, market.M1Small)
	cases := []Config{
		{},
		{Traces: set, Strategy: strategy.OnDemand{}, IntervalMinutes: 0, Start: 13 * week},
		{Traces: set, Strategy: strategy.OnDemand{}, IntervalMinutes: 60, Start: 0}, // no lead room
		{Traces: set, Strategy: strategy.OnDemand{}, IntervalMinutes: 60, Start: 13 * week, End: 13 * week},
	}
	for i, cfg := range cases {
		cfg.Spec = lockSpec()
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestReplayHardwareFailuresLowerAvailability(t *testing.T) {
	set := genTraces(t, 6, 2, market.M1Small)
	clean, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 6, InjectHardwareFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Availability > clean.Availability {
		t.Fatalf("failure injection raised availability: %v > %v", faulty.Availability, clean.Availability)
	}
	// Even with FP'=0.01 per node, the 5-node majority keeps the
	// service highly available.
	if faulty.Availability < 0.995 {
		t.Fatalf("injected availability %v implausibly low", faulty.Availability)
	}
}

func TestReplayDeterministic(t *testing.T) {
	set := genTraces(t, 7, 1, market.M1Small)
	run := func() *Result {
		res, err := Run(Config{
			Traces: set, Start: 13 * week,
			Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 2, Portion: 0.2},
			IntervalMinutes: 60, Seed: 7, InjectHardwareFailures: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cost != b.Cost || a.Availability != b.Availability || a.OutOfBid != b.OutOfBid {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
}

func TestReplayStorageSpec(t *testing.T) {
	set := genTraces(t, 8, 1, market.M3Large)
	spec := strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: spec, Strategy: core.New(),
		IntervalMinutes: 60, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanGroupSize < 5 {
		t.Fatalf("storage group size %v below 5", res.MeanGroupSize)
	}
	if res.Availability < 0.99 {
		t.Fatalf("storage availability %v", res.Availability)
	}
}

// TestReplayRejectsSpecOfAnotherType: the storage spec (m3.large)
// replayed over an m1.small market has no pool to run in. Run refuses it
// with a *SpecTypeError naming both types, for any strategy, instead of
// returning a $0 run at availability 0.
func TestReplayRejectsSpecOfAnotherType(t *testing.T) {
	set := genTraces(t, 8, 1, market.M1Small)
	spec := strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}
	for _, strat := range []strategy.Strategy{core.New(), strategy.OnDemand{}} {
		res, err := Run(Config{
			Traces: set, Start: 13 * week,
			Spec: spec, Strategy: strat,
			IntervalMinutes: 60, Seed: 8,
		})
		var typeErr *SpecTypeError
		if !errors.As(err, &typeErr) || typeErr.Traces != market.M1Small || typeErr.Spec != market.M3Large {
			t.Fatalf("%s: result %+v, error %v; want a *SpecTypeError (m1.small pools, m3.large spec)", strat.Name(), res, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "m1.small") || !strings.Contains(msg, "m3.large") {
			t.Errorf("%s: error %q does not name both types", strat.Name(), msg)
		}
	}
}

// TestReplayStormSurgeOverTypedPools is the -types chaos regression:
// the storm-surge builtin (a reclaim storm, then a market-wide price
// spike) must replay over a two-type pool market. The spike transform
// used to reject every sibling-type trace, failing the run before its
// first minute.
func TestReplayStormSurgeOverTypedPools(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 15, Type: market.M1Small, Types: []market.InstanceType{market.M1Medium},
		Zones: market.ExperimentZones(),
		Start: 0, End: 14 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := chaos.Builtin("storm-surge")
	if !ok {
		t.Fatal("storm-surge builtin missing")
	}
	spikes := 0
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: core.New(),
		IntervalMinutes: 180, Seed: 15,
		Chaos: &sc,
		Observers: []engine.Observer{&engine.Hooks{Fault: func(e engine.Event) {
			if e.Kind == engine.KindFaultInjected && e.Fault == chaos.PriceSpike {
				spikes++
			}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMinutes != week-1 || res.Decisions == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if spikes != 1 {
		t.Fatalf("observed %d price-spike injections, want 1", spikes)
	}
}

// TestAdaptiveForwardsFaults: Run subscribes a strategy to a chaos-armed
// run's events only if it is an engine.Observer, so a wrapper that is not
// one leaves the framework it wraps deaf — Adaptive used to, and its
// staged degradation never left healthy. The same storm-surge run must
// degrade the wrapped Jupiter as it degrades a bare one, as the KindStage
// events the framework publishes show.
func TestAdaptiveForwardsFaults(t *testing.T) {
	set := genTraces(t, 15, 1, market.M1Small)
	sc, ok := chaos.Builtin("storm-surge")
	if !ok {
		t.Fatal("storm-surge builtin missing")
	}
	degrades := func(s strategy.Strategy) bool {
		left := false
		_, err := Run(Config{
			Traces: set, Start: 13 * week,
			Spec: lockSpec(), Strategy: s,
			IntervalMinutes: 180, Seed: 15,
			Chaos: &sc,
			Observers: []engine.Observer{&engine.Hooks{Decision: func(e engine.Event) {
				left = left || (e.Kind == engine.KindStage && e.Fault != "healthy")
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return left
	}
	if !degrades(core.New()) {
		t.Fatal("storm-surge never degraded plain Jupiter; the comparison is vacuous")
	}
	if !degrades(core.NewAdaptive()) {
		t.Fatal("the Jupiter inside Adaptive stayed healthy through storm-surge: faults are not forwarded")
	}
}

// TestTraceFingerprintOnDemand: the fingerprint of the replayed price
// history — a hash over every point of it — is computed when a strategy
// first asks, not when the run is set up. After a whole replay of a
// strategy that never asks (Extra reads no trace identity) it has not
// been computed at all; a Jupiter replay, which keys its model cache by
// it, gets the value Set.Fingerprint gives — under chaos the transformed
// set's, perturbed by the scenario's salt.
func TestTraceFingerprintOnDemand(t *testing.T) {
	set := genTraces(t, 21, 1, market.M1Small)
	cfg := Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), IntervalMinutes: 360, Seed: 21,
	}
	replay := func(cfg Config) *traceFingerprint {
		t.Helper()
		r, err := newRun(cfg)
		if err == nil {
			err = r.runEvent()
		}
		if err == nil {
			err = r.finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.res.Decisions == 0 {
			t.Fatal("degenerate run: no decisions")
		}
		return r.view.fingerprint
	}
	// computed runs the holder's Once: it fires only if the run never did.
	computed := func(f *traceFingerprint) bool {
		fired := true
		f.once.Do(func() { fired = false })
		return fired
	}

	cfg.Strategy = strategy.Extra{ExtraNodes: 2, Portion: 0.2}
	if computed(replay(cfg)) {
		t.Fatal("a replay of Extra, which never asks for the trace fingerprint, computed it")
	}

	cfg.Strategy = core.New()
	if f := replay(cfg); !computed(f) || f.value != set.Fingerprint() {
		t.Fatalf("Jupiter replay: fingerprint %#x, want %#x", f.value, set.Fingerprint())
	}

	sc, ok := chaos.Builtin("storm-surge")
	if !ok {
		t.Fatal("storm-surge builtin missing")
	}
	eng, err := chaos.New(sc, cfg.ChaosSeed, cfg.Start)
	if err != nil {
		t.Fatal(err)
	}
	surged, err := eng.TransformTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	want := surged.Fingerprint() ^ eng.FingerprintSalt()
	if want == set.Fingerprint() {
		t.Fatal("the scenario leaves the fingerprint alone; pick one that does not")
	}
	cfg.Strategy, cfg.Chaos = core.New(), &sc
	if f := replay(cfg); !computed(f) || f.value != want {
		t.Fatalf("Jupiter replay under chaos: fingerprint %#x, want %#x", f.value, want)
	}
}

// TestChaosZoneMustHoldAPool: a zoned injector whose zone holds no pool
// of the replayed market — a typo, or a zone the market leaves out —
// fails the replay with an error naming the injector, instead of
// replaying as if there were no chaos at all.
func TestChaosZoneMustHoldAPool(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 5, Type: market.M1Small, Zones: []string{"us-east-1a", "us-west-2b", "eu-west-1a"},
		Start: 0, End: 14 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	for zone, want := range map[string]string{
		"us-east-1z": `chaos: injector 1 (zone-blackout): zone "us-east-1z" matches no pool of the market`,
		"sa-east-1a": `chaos: injector 1 (zone-blackout): zone "sa-east-1a" matches no pool of the market`,
	} {
		sc := chaos.Scenario{Name: "typo", Injectors: []chaos.Injector{
			{Kind: chaos.RequestLoss, From: 60, Until: 120},
			{Kind: chaos.ZoneBlackout, Zone: zone, From: 60, Until: 720},
		}}
		_, err := Run(Config{
			Traces: set, Start: 13 * week, Spec: lockSpec(), Strategy: strategy.OnDemand{},
			IntervalMinutes: 180, Seed: 5, Chaos: &sc,
		})
		if err == nil || err.Error() != want {
			t.Errorf("blackout of %s: %v, want %q", zone, err, want)
		}
	}
}
