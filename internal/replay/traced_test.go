package replay

import (
	"maps"
	"math"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/quorum"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// decisionLog is Jupiter recording every decision it returns and the
// bid failure probabilities it then exposes to the resize gate.
type decisionLog struct {
	*core.Jupiter
	decisions []strategy.Decision
	fps       []map[string]float64
}

func (d *decisionLog) Decide(view strategy.MarketView, spec strategy.ServiceSpec, interval int64) (strategy.Decision, error) {
	dec, err := d.Jupiter.Decide(view, spec, interval)
	d.decisions = append(d.decisions, dec)
	d.fps = append(d.fps, maps.Clone(d.LastBidFailureProbabilities()))
	return dec, err
}

// TestTracedJupiterMatchesUntraced: recording every decision's spans
// changes nothing a run does. Jupiter autoscaled through a flash crowd
// and a reclaim storm on a two-type pool market returns the same
// decisions, the same event stream and the same Result with a
// Recorder(1) as with none — the chosen span's availability is
// evaluated in the planner's own scratch row, and leaks nothing into
// it. Each chosen span's availability is the package function's,
// recomputed from its bid spans, bit for bit.
func TestTracedJupiterMatchesUntraced(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 23, Type: market.M1Small, Types: []market.InstanceType{market.M1Medium},
		Zones: market.ExperimentZones()[:5],
		Start: 0, End: 14 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := chaos.Builtin("flash-crowd+reclaim-storm")
	if !ok {
		t.Fatal("flash-crowd+reclaim-storm builtin missing")
	}
	start := 13 * week
	type run struct {
		res    *Result
		log    *decisionLog
		events []engine.Event
		rec    *provenance.Recorder
	}
	replay := func(rec *provenance.Recorder) run {
		out := run{log: &decisionLog{Jupiter: core.New()}, rec: rec}
		keep := func(e engine.Event) {
			e.DurationNanos = 0 // wall clock
			out.events = append(out.events, e)
		}
		res, err := Run(Config{
			Traces: set, Start: start,
			Spec: lockSpec(), Strategy: out.log,
			IntervalMinutes: 180, Seed: 23, InjectHardwareFailures: true,
			Chaos: &sc, Workload: crowdWorkload(t, start, set.End, 1500, 240, 9000),
			Spans: rec,
			Observers: []engine.Observer{&engine.Hooks{
				Instance: keep, OutOfBid: keep, Decision: keep, Billing: keep, Quorum: keep, Model: keep, Fault: keep,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out.res = res
		return out
	}
	plain, traced := replay(nil), replay(provenance.NewRecorder(1))

	if !reflect.DeepEqual(plain.res, traced.res) {
		t.Fatalf("traced run diverges:\nuntraced: %+v\ntraced:   %+v", plain.res, traced.res)
	}
	if !reflect.DeepEqual(plain.log.decisions, traced.log.decisions) || !reflect.DeepEqual(plain.log.fps, traced.log.fps) {
		t.Fatal("traced run decides differently")
	}
	if !reflect.DeepEqual(plain.events, traced.events) {
		t.Fatal("traced run publishes a different event stream")
	}
	detaches := 0
	for _, e := range plain.events {
		if e.Kind == engine.KindResizeStep && e.Fault == phaseDetach {
			detaches++
		}
	}
	if detaches == 0 {
		t.Fatal("no detach: the resize gate never ran")
	}

	var units []int
	var fps []float64
	chosen := 0
	for _, s := range traced.rec.Spans() {
		switch s.Kind {
		case provenance.SpanBid:
			u, err := market.PoolCapacityUnits(s.Pool, market.M1Small)
			if err != nil {
				t.Fatal(err)
			}
			units, fps = append(units, u), append(fps, s.FP)
		case provenance.SpanChosen:
			if s.Outcome == "ok" {
				tot := 0
				for _, u := range units {
					tot += u
				}
				want := quorum.WeightedThresholdAvailability(lockSpec().QuorumUnits(tot), units, fps)
				if math.Float64bits(s.Availability) != math.Float64bits(want) {
					t.Fatalf("decision %d: chosen availability %v, recomputed %v", s.Decision, s.Availability, want)
				}
				chosen++
			}
			units, fps = units[:0], fps[:0]
		}
	}
	if chosen == 0 || len(traced.log.decisions) != traced.res.Decisions {
		t.Fatalf("%d chosen spans over %d decisions (result counted %d)", chosen, len(traced.log.decisions), traced.res.Decisions)
	}
}
