package replay

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
)

// runPollingOracle replays cfg through the minute-polling reference
// loop (kernel_polling_test.go). Set-up and final accounting are Run's
// own newRun and finish; only the loop in between differs.
func runPollingOracle(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.runPolling(); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.res, nil
}

// kernels pairs the production kernel with its oracle for the
// agreement tests.
var kernels = []struct {
	name string
	run  func(Config) (*Result, error)
}{
	{"Event", Run},
	{"Polling", runPollingOracle},
}

// kernelCases spans the semantic corners of a replay: the semi-Markov
// bidder, persistent requests with failure injection, the on-demand
// baseline, and a thin-margin bidder with heavy out-of-bid churn.
func kernelCases() []struct {
	name string
	mk   func() strategy.Strategy
	pers bool
	inj  bool
} {
	return []struct {
		name string
		mk   func() strategy.Strategy
		pers bool
		inj  bool
	}{
		{"jupiter-injected", func() strategy.Strategy { return core.New() }, false, true},
		{"extra-persistent-injected", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 1, Portion: 0.15} }, true, true},
		{"baseline-clean", func() strategy.Strategy { return strategy.OnDemand{} }, false, false},
		{"extra-thin-clean", func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0.2} }, false, false},
	}
}

// TestKernelsAgree verifies the discrete-event kernel against the
// minute-polling reference implementation: same Config (same seed) must
// produce a deeply equal Result — cost, availability, launch counters,
// and the full per-interval Series — for every semantic corner.
func TestKernelsAgree(t *testing.T) {
	set := genTraces(t, 42, 2, market.M1Small)
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			var results [2]*Result
			for i, k := range kernels {
				res, err := k.run(Config{
					Traces: set, Start: 13 * week,
					Spec: lockSpec(), Strategy: tc.mk(),
					IntervalMinutes: 180, Seed: 42,
					InjectHardwareFailures: tc.inj, PersistentRequests: tc.pers,
				})
				if err != nil {
					t.Fatal(err)
				}
				results[i] = res
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("kernels diverge:\nevent:   %+v\npolling: %+v", results[0], results[1])
			}
		})
	}
}

// TestKernelSeedDeterminism replays the same seed twice per kernel and
// demands deeply equal Results.
func TestKernelSeedDeterminism(t *testing.T) {
	set := genTraces(t, 9, 1, market.M1Small)
	for _, k := range kernels {
		run := func() *Result {
			res, err := k.run(Config{
				Traces: set, Start: 13 * week,
				Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 1, Portion: 0.2},
				IntervalMinutes: 120, Seed: 9,
				InjectHardwareFailures: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s kernel not deterministic: %+v vs %+v", k.name, a, b)
		}
	}
}

// TestColbinMatchesCSVSet replays once over the generated set and once
// over its colbin round-trip, in one-shot and persistent-request mode:
// the binary format must be lossless all the way through a replay —
// Result and event stream — not just through Fingerprint.
func TestColbinMatchesCSVSet(t *testing.T) {
	set := genTraces(t, 12, 1, market.M1Small)
	file, _, err := colbin.Decode(colbin.Encode(set), trace.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for _, persistent := range []bool{false, true} {
		replay := func(traces *trace.Set) (*Result, []engine.Event) {
			// Model events stay out: they carry wall-clock durations.
			var events []engine.Event
			rec := func(e engine.Event) { events = append(events, e) }
			res, err := Run(Config{
				Traces: traces, Start: 13 * week,
				Spec: lockSpec(), Strategy: core.New(),
				IntervalMinutes: 360, Seed: 12,
				InjectHardwareFailures: true,
				PersistentRequests:     persistent,
				Observers: []engine.Observer{&engine.Hooks{
					Instance: rec, Decision: rec, Billing: rec, Quorum: rec,
				}},
			})
			if err != nil {
				t.Fatalf("persistent=%v: %v", persistent, err)
			}
			return res, events
		}
		direct, directEvents := replay(set)
		viaColbin, colbinEvents := replay(file.Set())
		if direct.Decisions == 0 || direct.SpotLaunch == 0 || len(directEvents) == 0 {
			t.Fatalf("persistent=%v: degenerate reference run: %+v", persistent, direct)
		}
		if !reflect.DeepEqual(direct, viaColbin) {
			t.Fatalf("persistent=%v: colbin round-trip changed the replay:\n%+v\n%+v", persistent, direct, viaColbin)
		}
		if !reflect.DeepEqual(directEvents, colbinEvents) {
			t.Fatalf("persistent=%v: colbin round-trip changed the event stream (%d vs %d events)",
				persistent, len(directEvents), len(colbinEvents))
		}
	}
}

// TestEndDefaultsAndValidation pins the Config.End contract: zero means
// "trace end - 1" (the last simulable minute), and ends at or before
// Start, negative, or beyond the trace are errors — not panics, and
// never a silent TotalMinutes == 0.
func TestEndDefaultsAndValidation(t *testing.T) {
	set := genTraces(t, 5, 1, market.M1Small)
	base := Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.OnDemand{},
		IntervalMinutes: 60, Seed: 5,
	}

	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.End - 1 - base.Start; res.TotalMinutes != want {
		t.Fatalf("default end accounted %d minutes, want %d (= trace end - 1 - start)", res.TotalMinutes, want)
	}

	explicit := base
	explicit.End = set.End - 1
	if res2, err := Run(explicit); err != nil {
		t.Fatalf("explicit end at trace end - 1 rejected: %v", err)
	} else if res2.TotalMinutes != res.TotalMinutes {
		t.Fatalf("explicit end accounted %d minutes, default %d", res2.TotalMinutes, res.TotalMinutes)
	}

	// Every rejection happens in newRun, before either loop starts, so
	// the kernel and its oracle must report the same first error for a
	// config that is wrong in more than one way.
	for _, tc := range []struct {
		name       string
		start, end int64
		want       string
	}{
		{"end at start", base.Start, base.Start, "empty accounting window"},
		{"end before start", base.Start, base.Start - 60, "empty accounting window"},
		{"negative end", base.Start, -1, "negative end"},
		{"end at trace end", base.Start, set.End, "beyond last simulable minute"},
		{"end beyond trace", base.Start, set.End + week, "beyond last simulable minute"},
		{"no lead room", set.Start + 5, 0, "no room for lead"},
		{"end beyond trace and no lead room", set.Start + 5, set.End, "beyond last simulable minute"},
		{"no lead room and empty window", set.Start + 5, set.Start + 5, "no room for lead"},
	} {
		bad := base
		bad.Start, bad.End = tc.start, tc.end
		for _, k := range kernels {
			_, err := k.run(bad)
			if err == nil {
				t.Errorf("%s (Start=%d End=%d) accepted by the %s kernel", tc.name, tc.start, tc.end, k.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s kernel reports %q, want an error containing %q", tc.name, k.name, err, tc.want)
			}
		}
	}
}

// TestEventObserverStream checks the observer surface: decision events
// match the decision count, quorum transitions integrate exactly to the
// reported down minutes, and lifecycle events cover every launch.
func TestEventObserverStream(t *testing.T) {
	set := genTraces(t, 11, 1, market.M1Small)
	var decisions, launches int
	var downSince int64 = -1
	var downTotal int64
	obs := &engine.Hooks{
		Decision: func(e engine.Event) { decisions++ },
		Instance: func(e engine.Event) {
			if e.Kind == engine.KindInstanceLaunched {
				launches++
			}
		},
		Quorum: func(e engine.Event) {
			switch e.Kind {
			case engine.KindQuorumDown:
				downSince = e.Minute
			case engine.KindQuorumUp:
				if downSince < 0 {
					t.Errorf("quorum-up at %d without a preceding quorum-down", e.Minute)
					return
				}
				downTotal += e.Minute - downSince
				downSince = -1
			}
		},
	}
	end := set.End - 1
	res, err := Run(Config{
		Traces: set, Start: 13 * week,
		Spec: lockSpec(), Strategy: strategy.Extra{ExtraNodes: 0, Portion: 0.2},
		IntervalMinutes: 120, Seed: 11,
		Observers: []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if downSince >= 0 { // still down at the end of accounting
		downTotal += end - downSince
	}
	if decisions != res.Decisions {
		t.Fatalf("observed %d decision events, result says %d", decisions, res.Decisions)
	}
	if launches != res.SpotLaunch+res.OnDemandLaunch {
		t.Fatalf("observed %d launches, result says %d spot + %d on-demand",
			launches, res.SpotLaunch, res.OnDemandLaunch)
	}
	if downTotal != res.DownMinutes {
		t.Fatalf("quorum events integrate to %d down minutes, result says %d", downTotal, res.DownMinutes)
	}
	if res.OutOfBid == 0 {
		t.Fatal("thin-margin case produced no out-of-bid churn; test is vacuous")
	}
}
