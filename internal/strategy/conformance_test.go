package strategy_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// TestRegisteredStrategyConformance is the conformance harness for
// bidding strategies: every family of the strategy table
// (experiments.Families) — the paper's strategies, the Jupiter
// variants, and the literature rivals alike — is built from its bare
// name, or an example spec where it needs arguments, and driven
// through the contract checks every Strategy must honour: determinism
// under an equal seed and view, no peeking at price history past the
// view's now, propagation of the typed market.ErrNoFeasiblePools,
// well-formed non-negative bids over known pools, and fault events
// reaching a wrapped fault-aware strategy. The checks see only the
// strategy package's interface.
func TestRegisteredStrategyConformance(t *testing.T) {
	examples := map[string]string{"extra": "extra(2, 0.2)"}
	for _, f := range experiments.Families {
		t.Run(f.Name, func(t *testing.T) {
			spec, ok := examples[f.Name]
			if !ok {
				spec = f.Name
			}
			builder, err := experiments.Build(spec)
			if err != nil {
				t.Fatalf("building spec %q: %v", spec, err)
			}
			checkNames(t, builder)
			checkDeterminismAndBids(t, builder)
			checkNoFeasiblePools(t, builder)
			checkWrapperObserves(t, builder)
		})
	}
}

// week is one week of minutes.
const week = int64(7 * 24 * 60)

// View is a deterministic, guarded strategy.MarketView over a
// generated trace set, positioned at a fixed minute. History requests
// reaching past Now — future peeking — are recorded as violations
// instead of being served.
type View struct {
	Set    *trace.Set
	Minute int64
	// FuturePeeks collects the offending PriceHistory calls.
	FuturePeeks []string
}

// Now implements strategy.MarketView.
func (v *View) Now() int64 { return v.Minute }

// Zones implements strategy.MarketView.
func (v *View) Zones() []string { return v.Set.Zones() }

// SpotPrice implements strategy.MarketView.
func (v *View) SpotPrice(zone string) (market.Money, error) {
	tr, ok := v.Set.ByZone[zone]
	if !ok {
		return 0, fmt.Errorf("conformance: unknown pool %q", zone)
	}
	return tr.PriceAt(v.Minute), nil
}

// SpotPriceAge implements strategy.MarketView.
func (v *View) SpotPriceAge(zone string) (int64, error) {
	tr, ok := v.Set.ByZone[zone]
	if !ok {
		return 0, fmt.Errorf("conformance: unknown pool %q", zone)
	}
	return tr.AgeAt(v.Minute), nil
}

// PriceHistory implements strategy.MarketView, clamping the window to
// the trace span and flagging any request for history past Now.
func (v *View) PriceHistory(zone string, from, to int64) (*trace.Trace, error) {
	tr, ok := v.Set.ByZone[zone]
	if !ok {
		return nil, fmt.Errorf("conformance: unknown pool %q", zone)
	}
	if to > v.Minute {
		v.FuturePeeks = append(v.FuturePeeks,
			fmt.Sprintf("PriceHistory(%s, %d, %d) at now=%d", zone, from, to, v.Minute))
		to = v.Minute
	}
	if from < tr.Start {
		from = tr.Start
	}
	if from > to {
		from = to
	}
	return tr.Window(from, to), nil
}

// GenView generates a single-type market over the paper's experiment
// zones and positions the view at the last minute of the span.
func GenView(tb testing.TB, seed uint64, weeks int64) *View {
	tb.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0, End: weeks * week,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &View{Set: set, Minute: weeks*week - 1}
}

// conformanceSpec is the deployment every check decides for: the
// paper's lock service.
func conformanceSpec() strategy.ServiceSpec {
	return strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}
}

// checkNames: fresh instances of one family carry one stable name.
func checkNames(t *testing.T, builder strategy.Builder) {
	t.Helper()
	a, b := builder(), builder()
	if a.Name() == "" {
		t.Fatal("empty strategy name")
	}
	if a.Name() != b.Name() {
		t.Fatalf("unstable name: %q vs %q", a.Name(), b.Name())
	}
}

// checkWrapperObserves: the replay harness subscribes a strategy to a
// chaos-armed run's event stream only if the strategy itself is an
// engine.Observer. A strategy that holds a fault-aware strategy in one
// of its fields but is not an observer would leave the inner one deaf to
// every fault, silently.
func checkWrapperObserves(t *testing.T, builder strategy.Builder) {
	t.Helper()
	s := builder()
	if _, ok := s.(engine.Observer); ok {
		return
	}
	v := reflect.Indirect(reflect.ValueOf(s))
	if v.Kind() != reflect.Struct {
		return
	}
	strategyType := reflect.TypeOf((*strategy.Strategy)(nil)).Elem()
	observerType := reflect.TypeOf((*engine.Observer)(nil)).Elem()
	for i := 0; i < v.NumField(); i++ {
		ft := v.Field(i).Type()
		if f := v.Field(i); f.Kind() == reflect.Interface && !f.IsNil() {
			ft = f.Elem().Type()
		}
		if ft.Implements(strategyType) && ft.Implements(observerType) {
			t.Fatalf("%T wraps the fault-aware %v (field %s) but is not an engine.Observer: replay.Run will never deliver it a fault",
				s, ft, v.Type().Field(i).Name)
		}
	}
}

// decisionSteps drives one fresh instance through a short sequence of
// decisions over the same market (stateful strategies accumulate their
// controller state exactly as in a replay) and returns the decisions.
func decisionSteps(t *testing.T, s strategy.Strategy, set *trace.Set, minutes []int64) []strategy.Decision {
	t.Helper()
	spec := conformanceSpec()
	out := make([]strategy.Decision, len(minutes))
	for i, m := range minutes {
		view := &View{Set: set, Minute: m}
		d, err := s.Decide(view, spec, 180)
		if err != nil {
			t.Fatalf("Decide at minute %d: %v", m, err)
		}
		if len(view.FuturePeeks) > 0 {
			t.Fatalf("future peeking at minute %d: %v", m, view.FuturePeeks)
		}
		if ic, ok := s.(strategy.IntervalChooser); ok {
			iv := ic.ChooseInterval(&View{Set: set, Minute: m}, spec)
			if iv <= 0 {
				t.Fatalf("ChooseInterval returned %d at minute %d", iv, m)
			}
		}
		out[i] = d
	}
	return out
}

// checkDeterminismAndBids: two fresh instances over the identical view
// sequence make byte-identical decision sequences, and every decision
// is well-formed — non-negative bids, known pools, no pool bid twice.
func checkDeterminismAndBids(t *testing.T, builder strategy.Builder) {
	t.Helper()
	view := GenView(t, 2014, 6)
	end := view.Minute
	minutes := []int64{end - 360, end - 180, end}
	a := decisionSteps(t, builder(), view.Set, minutes)
	b := decisionSteps(t, builder(), view.Set, minutes)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal-view decision sequences differ:\n%+v\nvs\n%+v", a, b)
	}
	known := map[string]bool{}
	for _, z := range view.Set.Zones() {
		known[z] = true
	}
	for i, d := range a {
		seen := map[string]bool{}
		for _, bid := range d.Bids {
			if bid.Price < 0 {
				t.Errorf("step %d: negative bid %v in %q", i, bid.Price, bid.Zone)
			}
			if !known[bid.Zone] {
				t.Errorf("step %d: bid on unknown pool %q", i, bid.Zone)
			}
			if seen[bid.Zone] {
				t.Errorf("step %d: pool %q bid twice", i, bid.Zone)
			}
			seen[bid.Zone] = true
		}
		for _, z := range d.OnDemand {
			if !known[z] {
				t.Errorf("step %d: on-demand in unknown pool %q", i, z)
			}
		}
	}
}

// checkNoFeasiblePools: an unsatisfiable shape constraint must surface
// the typed market.ErrNoFeasiblePools, not a fabricated decision.
func checkNoFeasiblePools(t *testing.T, builder strategy.Builder) {
	t.Helper()
	view := GenView(t, 2014, 6)
	spec := conformanceSpec()
	spec.MinVCPU = 1 << 20
	_, err := builder().Decide(view, spec, 180)
	if !errors.Is(err, market.ErrNoFeasiblePools) {
		t.Fatalf("want market.ErrNoFeasiblePools for an unsatisfiable constraint, got %v", err)
	}
}
