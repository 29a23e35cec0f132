// Package chaos is the deterministic fault-injection layer over the
// simulation: declarative scenarios — a name, a seed, and a list of
// injectors with windows and parameters — compiled into scheduled
// control-plane actions, price-trace overlays, launch gates, and
// market-view staleness on top of internal/cloud's provider.
//
// Determinism is the contract: every random choice (storm victims,
// request-loss draws) flows through a chaos-private stats.RNG seeded
// from the scenario, so a fixed scenario + seed reproduces the exact
// same fault schedule — and therefore byte-identical event traces —
// across repeats, independently of the replay's own RNG stream. A
// scenario with zero injectors schedules nothing, installs nothing,
// and leaves a run bit-identical to one without the chaos layer.
//
// Injector semantics:
//
//   - zone-blackout: every instance in the zone is reclaimed by the
//     provider at From and launches there are refused until Until.
//   - reclaim-storm: Count live spot instances (optionally filtered by
//     Zone) are provider-terminated regardless of bid, at seeded
//     offsets within [From, From+SpreadMinutes].
//   - price-spike: the zone's trace price is multiplied by Factor over
//     [From, Until); out-of-bid reclamation and billing follow the
//     spiked price through the existing market rules.
//   - request-delay: spot launches in the window start DelayMinutes
//     late, each with probability Probability (default 1).
//   - request-loss: spot launches in the window are dropped with
//     probability Probability (default 1).
//   - trace-gap: the price feed goes silent over [From, Until): the
//     strategy sees the last pre-gap price (with growing age) and no
//     history from inside the gap.
//   - flash-crowd: the replay's request-rate workload is multiplied by
//     Factor over [From, Until) — a load event, not an infrastructure
//     fault: it rewrites the workload trace before the autoscaler plans
//     over it, schedules no provider actions, and is inert in a run
//     without a workload.
//
// All windows are in minutes relative to the replay's start.
package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
)

// Injector kinds.
const (
	ZoneBlackout = "zone-blackout"
	ReclaimStorm = "reclaim-storm"
	PriceSpike   = "price-spike"
	RequestDelay = "request-delay"
	RequestLoss  = "request-loss"
	TraceGap     = "trace-gap"
	FlashCrowd   = "flash-crowd"
)

// Injector is one declarative fault source of a scenario.
type Injector struct {
	// Kind selects the fault (the package-level kind constants).
	Kind string `json:"kind"`
	// Zone scopes the fault to one availability zone. Empty means
	// every zone (not allowed for zone-blackout). On a (zone × type)
	// pool market the fault hits every pool of the zone, whatever the
	// instance type. A zone that holds no pool of the replayed market
	// fails the replay.
	Zone string `json:"zone,omitempty"`
	// From is the injection minute, relative to the replay start.
	From int64 `json:"from"`
	// Until is the exclusive window end for windowed kinds
	// (zone-blackout, price-spike, request-delay, request-loss,
	// trace-gap), relative to the replay start.
	Until int64 `json:"until,omitempty"`
	// Factor multiplies the trace price (price-spike) or the workload
	// request rate (flash-crowd); > 0.
	Factor float64 `json:"factor,omitempty"`
	// Count is the number of storm victims (reclaim-storm; >= 1).
	Count int `json:"count,omitempty"`
	// SpreadMinutes is the storm's Δ: victims are reclaimed at seeded
	// offsets in [0, SpreadMinutes] after From (reclaim-storm; >= 0).
	SpreadMinutes int64 `json:"spread_minutes,omitempty"`
	// DelayMinutes stretches gated launches (request-delay; >= 1).
	DelayMinutes int64 `json:"delay_minutes,omitempty"`
	// Probability gates each affected request independently
	// (request-delay, request-loss; (0, 1], default 1).
	Probability float64 `json:"probability,omitempty"`
}

// windowed reports whether the kind requires an Until > From window.
func windowed(kind string) bool {
	switch kind {
	case ZoneBlackout, PriceSpike, RequestDelay, RequestLoss, TraceGap, FlashCrowd:
		return true
	}
	return false
}

// validate checks one injector; i is its index for error messages.
func (inj Injector) validate(i int) error {
	e := func(format string, args ...any) error {
		return fmt.Errorf("chaos: injector %d (%s): %s", i, inj.Kind, fmt.Sprintf(format, args...))
	}
	switch inj.Kind {
	case ZoneBlackout:
		if inj.Zone == "" {
			return e("zone is required")
		}
	case ReclaimStorm:
		if inj.Count < 1 {
			return e("count %d < 1", inj.Count)
		}
		if inj.SpreadMinutes < 0 {
			return e("spread_minutes %d < 0", inj.SpreadMinutes)
		}
	case PriceSpike, FlashCrowd:
		if inj.Factor <= 0 {
			return e("factor %g <= 0", inj.Factor)
		}
	case RequestDelay:
		if inj.DelayMinutes < 1 {
			return e("delay_minutes %d < 1", inj.DelayMinutes)
		}
	case RequestLoss, TraceGap:
		// window and probability checks below
	default:
		return fmt.Errorf("chaos: injector %d: unknown kind %q", i, inj.Kind)
	}
	if inj.From < 0 {
		return e("from %d < 0", inj.From)
	}
	if windowed(inj.Kind) && inj.Until <= inj.From {
		return e("window [%d, %d) is empty", inj.From, inj.Until)
	}
	if inj.Probability < 0 || inj.Probability > 1 {
		return e("probability %g outside [0, 1]", inj.Probability)
	}
	return nil
}

// Scenario is a named, seeded set of injectors.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random choice the scenario makes; a -chaos-seed
	// flag overrides it at run time.
	Seed      uint64     `json:"seed,omitempty"`
	Injectors []Injector `json:"injectors"`
}

// Validate checks the scenario's shape.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("chaos: scenario name is required")
	}
	for i, inj := range sc.Injectors {
		if err := inj.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// hash folds the scenario's fault-relevant content into a 64-bit
// fingerprint, used to salt trace fingerprints when the scenario
// alters what a strategy observes.
func (sc Scenario) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", sc.Name, sc.Seed)
	for _, inj := range sc.Injectors {
		fmt.Fprintf(h, "|%s,%s,%d,%d,%g,%d,%d,%d,%g",
			inj.Kind, inj.Zone, inj.From, inj.Until, inj.Factor,
			inj.Count, inj.SpreadMinutes, inj.DelayMinutes, inj.Probability)
	}
	return h.Sum64()
}

// Load reads a scenario from a JSON file (unknown fields rejected) and
// validates it. When the path names a builtin scenario instead of an
// existing file, the builtin is returned.
func Load(path string) (Scenario, error) {
	if sc, ok := Builtin(path); ok {
		return sc, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("chaos: %w (and %q names no builtin scenario; builtins: %v)",
			err, path, BuiltinNames())
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("chaos: parsing %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
