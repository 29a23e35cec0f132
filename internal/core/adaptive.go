package core

import (
	"repro/internal/engine"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
)

// The adaptive chooser's tuning. The interval is clamped to the paper's
// 1h–12h sweep range, measured over the last two days of history, and
// sized so roughly targetChangesPerInterval price changes happen per
// zone per interval.
const (
	adaptiveMinMinutes       = 60
	adaptiveMaxMinutes       = 720
	adaptiveLookbackMinutes  = 2 * 24 * 60
	targetChangesPerInterval = 6
)

// Adaptive implements the paper's §5.5 future-work extension: it wraps
// Jupiter and chooses the next bidding interval from the observed
// frequency of spot-price fluctuation — short intervals when the
// market churns (so bids can track prices), long intervals when it is
// calm (so instance-relaunch startup overhead is avoided).
type Adaptive struct {
	// BaseObserver makes the wrapper an engine.Observer, which is what
	// the replay harness looks for when it subscribes a strategy to the
	// event stream of a chaos-armed run; OnFault forwards to Inner, whose
	// staged degradation would otherwise never see a fault.
	engine.BaseObserver

	// Inner is the wrapped bidding framework.
	Inner *Jupiter
}

// NewAdaptive returns an adaptive wrapper around a fresh Jupiter.
func NewAdaptive() *Adaptive {
	return &Adaptive{Inner: New()}
}

// Name implements strategy.Strategy.
func (a *Adaptive) Name() string { return "Jupiter-adaptive" }

// UseModelCache implements modelcache.Consumer by delegating to the
// wrapped framework.
func (a *Adaptive) UseModelCache(c *modelcache.Cache) { a.Inner.UseModelCache(c) }

// UseRecorder implements provenance.Consumer by delegating to the
// wrapped framework.
func (a *Adaptive) UseRecorder(r *provenance.Recorder) { a.Inner.UseRecorder(r) }

// OnFault implements engine.Observer by delegating to the wrapped
// framework's staged-degradation tracker.
func (a *Adaptive) OnFault(e engine.Event) { a.Inner.OnFault(e) }

// LastStage returns the degradation stage of the wrapped framework's
// most recent Decide.
func (a *Adaptive) LastStage() DegradeStage { return a.Inner.LastStage() }

// ChooseInterval implements strategy.IntervalChooser: it measures the
// median per-zone price-change period over the lookback window and
// sizes the interval to targetChangesPerInterval periods, clamped and
// rounded to whole hours.
func (a *Adaptive) ChooseInterval(view strategy.MarketView, spec strategy.ServiceSpec) int64 {
	now := view.Now()
	from := now - adaptiveLookbackMinutes
	var periods []float64
	for _, z := range view.Zones() {
		hist, err := view.PriceHistory(z, from, now)
		if err != nil || hist.End <= hist.Start {
			continue
		}
		changes := len(hist.Sojourns())
		if changes < 2 {
			continue
		}
		periods = append(periods, float64(hist.End-hist.Start)/float64(changes))
	}
	interval := int64(adaptiveMaxMinutes)
	if len(periods) > 0 {
		// Median change period across zones.
		interval = int64(median(periods) * targetChangesPerInterval)
	}
	// Round to whole hours, clamp to the sweep range.
	interval = (interval + 30) / 60 * 60
	return min(max(interval, adaptiveMinMinutes), adaptiveMaxMinutes)
}

// Decide implements strategy.Strategy by delegating to the wrapped
// Jupiter at the chosen horizon.
func (a *Adaptive) Decide(view strategy.MarketView, spec strategy.ServiceSpec, intervalMinutes int64) (strategy.Decision, error) {
	return a.Inner.Decide(view, spec, intervalMinutes)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
