package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// chaosGuaranteeEpsilon is the availability slack the guarantee suite
// grants Jupiter under fault injection: decisions land only at interval
// boundaries, so a mid-interval fault can structurally cost up to one
// bidding interval of quorum (~180 accounted minutes at the quick
// scale, ~0.018 of a week) before the next make-before-break repair.
const chaosGuaranteeEpsilon = 0.02

// chaosQuickRun replays one quick-scale lock cell (6 train weeks, 1
// replay week, 3h interval) under the given scenario — nil for a plain
// run — streaming the event history as JSONL into the returned buffer.
// Models are deliberately per-run: a shared cache would turn the second
// run's trainings into hits and drop their events from the trace.
func chaosQuickRun(t *testing.T, sc *chaos.Scenario, strat strategy.Strategy, models *modelcache.Cache) ([]byte, *replay.Result) {
	t.Helper()
	e := QuickEnv()
	e.Chaos = sc
	e.Models = models
	var buf bytes.Buffer
	tw, err := telemetry.NewTraceWriter(&buf, telemetry.SortedMeta("suite", "chaos"))
	if err != nil {
		t.Fatal(err)
	}
	e.Observe = func(strategy.ServiceSpec, string, int64) []engine.Observer {
		return []engine.Observer{tw}
	}
	set, err := e.Traces(market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayOnce(e, set, LockSpec(), strat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// replayOnce replays strat on set as a one-cell grid of e. With
// e.Models nil the grid creates its own model cache, so its models are
// per-run.
func replayOnce(e Env, set *trace.Set, spec strategy.ServiceSpec, strat strategy.Strategy, hours int64) (*replay.Result, error) {
	results, err := e.runGrid([]cell{e.cell(set, spec, func() strategy.Strategy { return strat }, hours)})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TestChaosTraceByteDeterminism pins the chaos determinism contract:
// a fixed scenario and seed produce a byte-identical JSONL event trace,
// run after run — faults are ordinary scheduled events, not wall-clock
// randomness.
func TestChaosTraceByteDeterminism(t *testing.T) {
	sc := mustBuiltin(t, "reclaim-storm")
	a, resA := chaosQuickRun(t, &sc, core.New(), nil)
	b, resB := chaosQuickRun(t, &sc, core.New(), nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("equal-seed chaos traces differ: %d vs %d bytes", len(a), len(b))
	}
	if resA.Cost != resB.Cost || resA.Availability != resB.Availability {
		t.Fatalf("equal-seed chaos results differ: %+v vs %+v", resA, resB)
	}
	if n := bytes.Count(a, []byte(`"kind":"fault-injected"`)); n == 0 {
		t.Fatal("storm run recorded no fault events")
	}
}

// TestChaosZeroInjectorsMatchesNoChaos: arming the chaos layer with a
// zero-injector scenario must be bit-identical to not arming it at all
// — the layer's mere presence may not perturb a run.
func TestChaosZeroInjectorsMatchesNoChaos(t *testing.T) {
	calm := mustBuiltin(t, "calm")
	armed, resArmed := chaosQuickRun(t, &calm, core.New(), nil)
	plain, resPlain := chaosQuickRun(t, nil, core.New(), nil)
	if !bytes.Equal(armed, plain) {
		t.Fatalf("calm scenario perturbs the run: %d vs %d bytes", len(armed), len(plain))
	}
	if resArmed.Cost != resPlain.Cost || resArmed.Availability != resPlain.Availability {
		t.Fatalf("calm scenario perturbs the result: %+v vs %+v", resArmed, resPlain)
	}
}

// TestChaosGuaranteeSuite is the availability guarantee under fault
// injection: for every shipped scenario, Jupiter (with its staged
// degradation to on-demand) must stay within chaosGuaranteeEpsilon of
// the clean on-demand baseline's availability while remaining cheaper
// than running everything on demand.
func TestChaosGuaranteeSuite(t *testing.T) {
	_, base := chaosQuickRun(t, nil, strategy.OnDemand{}, nil)
	if base.Availability < 0.999 {
		t.Fatalf("on-demand baseline availability %v suspiciously low", base.Availability)
	}
	models := modelcache.New() // price-surge and stale-feed salt the fingerprint, so sharing is safe
	for _, name := range chaos.BuiltinNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := mustBuiltin(t, name)
			_, res := chaosQuickRun(t, &sc, core.New(), models)
			if res.Availability < base.Availability-chaosGuaranteeEpsilon {
				t.Errorf("availability %.6f under %s below baseline %.6f - %.2f",
					res.Availability, name, base.Availability, chaosGuaranteeEpsilon)
			}
			if res.Cost >= base.Cost {
				t.Errorf("cost %v under %s not below all-on-demand %v", res.Cost, name, base.Cost)
			}
		})
	}
}

// TestChaosBreaksNaiveFixedBid pins that the suite is actually harsh:
// the flaky-market scenario (a day of 85% launch loss) must break the
// Extra fixed-margin bidder, which has no on-demand fallback, while
// Jupiter rides it out. If this stops failing Extra, the scenario has
// gone soft and the guarantee suite proves nothing.
func TestChaosBreaksNaiveFixedBid(t *testing.T) {
	sc := mustBuiltin(t, "flaky-market")
	_, extra := chaosQuickRun(t, &sc, strategy.Extra{ExtraNodes: 0, Portion: 0.2}, nil)
	_, jup := chaosQuickRun(t, &sc, core.New(), nil)
	if extra.Availability >= 0.95 {
		t.Errorf("Extra availability %.6f under flaky-market not demonstrably broken (< 0.95)", extra.Availability)
	}
	if jup.Availability < 0.98 {
		t.Errorf("Jupiter availability %.6f under flaky-market below 0.98", jup.Availability)
	}
	if jup.Availability <= extra.Availability {
		t.Errorf("Jupiter (%.6f) not above Extra (%.6f) under flaky-market", jup.Availability, extra.Availability)
	}
}

// resizeWindowTracker collects, from one run's event stream, the
// in-flight resize windows (resize target to settle/abort) and the
// quorum-down spans, so the guarantee suite can compute per-window
// rolling availability.
type resizeWindowTracker struct {
	engine.BaseObserver
	windows   [][2]int64 // [open, close); close = -1 while open
	downSpans [][2]int64
}

func (w *resizeWindowTracker) OnDecision(e engine.Event) {
	switch e.Kind {
	case engine.KindResizeTarget:
		if n := len(w.windows); n == 0 || w.windows[n-1][1] >= 0 {
			w.windows = append(w.windows, [2]int64{e.Minute, -1})
		}
	case engine.KindResizeStep:
		if e.Fault == "settled" || e.Fault == "abort" {
			if n := len(w.windows); n > 0 && w.windows[n-1][1] < 0 {
				w.windows[n-1][1] = e.Minute
			}
		}
	}
}

func (w *resizeWindowTracker) OnQuorum(e engine.Event) {
	switch e.Kind {
	case engine.KindQuorumDown:
		if n := len(w.downSpans); n == 0 || w.downSpans[n-1][1] >= 0 {
			w.downSpans = append(w.downSpans, [2]int64{e.Minute, -1})
		}
	case engine.KindQuorumUp:
		if n := len(w.downSpans); n > 0 && w.downSpans[n-1][1] < 0 {
			w.downSpans[n-1][1] = e.Minute
		}
	}
}

// close truncates open windows and spans at the accounting end.
func (w *resizeWindowTracker) close(end int64) {
	if n := len(w.windows); n > 0 && w.windows[n-1][1] < 0 {
		w.windows[n-1][1] = end
	}
	if n := len(w.downSpans); n > 0 && w.downSpans[n-1][1] < 0 {
		w.downSpans[n-1][1] = end
	}
}

// windowAvailability returns the rolling availability over [from, to).
func (w *resizeWindowTracker) windowAvailability(from, to int64) float64 {
	if to <= from {
		return 1
	}
	var down int64
	for _, s := range w.downSpans {
		lo, hi := s[0], s[1]
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			down += hi - lo
		}
	}
	return 1 - float64(down)/float64(to-from)
}

// cruiseWorkload is a flat request-rate trace sized so the autoscaler
// holds the lock spec's five nodes until a flash-crowd injector
// multiplies the rate.
func cruiseWorkload(t *testing.T, e Env) *workload.Trace {
	t.Helper()
	start := e.TrainWeeks * Week
	end := (e.TrainWeeks + e.ReplayWeeks) * Week
	wl, err := workload.New(start, end, []workload.Point{{Minute: start, RPS: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestChaosFlashCrowdGuarantee is the resize-window availability
// guarantee: under every flash-crowd builtin (crowd alone, and crowd
// compounded with a reclaim storm), on two independent markets,
// Jupiter's rolling availability through EVERY gradual-resize window
// must stay within chaosGuaranteeEpsilon of the all-on-demand
// autoscaled baseline, at lower cost than that baseline — scaling
// through the crowd may not be bought with downtime or with on-demand
// money.
func TestChaosFlashCrowdGuarantee(t *testing.T) {
	for _, name := range []string{"flash-crowd", "flash-crowd+reclaim-storm"} {
		for _, seed := range []uint64{2014, 2015} {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				sc := mustBuiltin(t, name)
				e := QuickEnv()
				e.Seed = seed
				wl := cruiseWorkload(t, e)
				end := (e.TrainWeeks + e.ReplayWeeks) * Week

				run := func(sc *chaos.Scenario, strat strategy.Strategy) (*replay.Result, *resizeWindowTracker) {
					re := e
					re.Chaos = sc
					re.Workload = wl
					tr := &resizeWindowTracker{}
					re.Observe = func(strategy.ServiceSpec, string, int64) []engine.Observer {
						return []engine.Observer{tr}
					}
					set, err := re.Traces(market.M1Small)
					if err != nil {
						t.Fatal(err)
					}
					res, err := replayOnce(re, set, LockSpec(), strat, 3)
					if err != nil {
						t.Fatal(err)
					}
					tr.close(end)
					return res, tr
				}

				base, _ := run(&sc, strategy.OnDemand{})
				res, tr := run(&sc, core.New())

				if len(tr.windows) == 0 {
					t.Fatal("flash crowd drove no resize window")
				}
				floor := base.Availability - chaosGuaranteeEpsilon
				for _, w := range tr.windows {
					if avail := tr.windowAvailability(w[0], w[1]); avail < floor {
						t.Errorf("rolling availability %.6f through resize window [%d, %d) below baseline %.6f - %.2f",
							avail, w[0], w[1], base.Availability, chaosGuaranteeEpsilon)
					}
				}
				if res.Availability < floor {
					t.Errorf("overall availability %.6f below baseline %.6f - %.2f",
						res.Availability, base.Availability, chaosGuaranteeEpsilon)
				}
				if res.Cost >= base.Cost {
					t.Errorf("cost %v not below all-on-demand autoscaled %v", res.Cost, base.Cost)
				}
			})
		}
	}
}

func mustBuiltin(t *testing.T, name string) chaos.Scenario {
	t.Helper()
	sc, ok := chaos.Builtin(name)
	if !ok {
		t.Fatalf("builtin scenario %q missing", name)
	}
	return sc
}
