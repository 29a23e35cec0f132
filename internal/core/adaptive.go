package core

import "repro/internal/strategy"

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
//
// Embedding gives it every method of the framework it wraps — Decide
// and each optional extension the replay harness looks for (fault
// observation, the shared model cache, provenance, failure probes) —
// so none can be left unforwarded.
type Adaptive struct {
	*Jupiter
}

// NewAdaptive returns an adaptive wrapper around a fresh Jupiter.
func NewAdaptive() *Adaptive {
	return &Adaptive{New()}
}

// Name implements strategy.Strategy.
func (a *Adaptive) Name() string { return "Jupiter-adaptive" }

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
