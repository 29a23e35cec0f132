package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// The generator's shape. Flash crowds arrive crowdsPerWeek times per
// week of span on average; each multiplies the rate by a factor drawn
// in [2, flashFactor] for a duration around flashMinutes, ramping
// linearly up and down.
const (
	baseRPS        = 4000 // diurnal mean request rate
	dailyAmplitude = 0.45 // a quiet night runs at ~55% of the mean, the evening peak at ~145%
	crowdsPerWeek  = 2
	flashFactor    = 4
	flashMinutes   = 120
	stepMinutes    = 5 // sampling interval between change points
)

// GenConfig selects one synthetic request-rate trace.
type GenConfig struct {
	// Seed drives every random choice; equal configs generate
	// byte-identical traces.
	Seed uint64
	// Start and End bound the trace span, in minutes.
	Start, End int64
}

// flashCrowd is one generated surge: a linear ramp up over the first
// quarter of the window, a plateau at peak, a ramp down over the last
// quarter.
type flashCrowd struct {
	from, until int64
	peak        float64 // multiplier at the plateau, >= 1
}

// multiplier returns the crowd's rate multiplier at a minute.
func (f flashCrowd) multiplier(m int64) float64 {
	if m < f.from || m >= f.until {
		return 1
	}
	span := float64(f.until - f.from)
	ramp := span / 4
	pos := float64(m - f.from)
	switch {
	case pos < ramp:
		return 1 + (f.peak-1)*pos/ramp
	case pos >= span-ramp:
		return 1 + (f.peak-1)*(span-pos)/ramp
	}
	return f.peak
}

// Generate builds a deterministic synthetic request-rate trace: a
// diurnal sinusoid around baseRPS overlaid with seeded flash crowds.
func Generate(cfg GenConfig) (*Trace, error) {
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("workload: empty span [%d, %d)", cfg.Start, cfg.End)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x776f726b6c6f6164) // "workload"
	span := cfg.End - cfg.Start
	weeks := float64(span) / float64(7*24*60)
	n := int(crowdsPerWeek*weeks + 0.5)
	crowds := make([]flashCrowd, 0, n)
	for i := 0; i < n; i++ {
		from := cfg.Start + rng.Int63n(span)
		dur := flashMinutes/2 + rng.Int63n(flashMinutes+1)
		peak := 2 + (flashFactor-2)*rng.Float64()
		until := from + dur
		if until > cfg.End {
			until = cfg.End
		}
		crowds = append(crowds, flashCrowd{from: from, until: until, peak: peak})
	}
	sort.Slice(crowds, func(i, j int) bool { return crowds[i].from < crowds[j].from })

	const day = 24 * 60
	points := make([]Point, 0, span/stepMinutes+1)
	for m := cfg.Start; m < cfg.End; m += stepMinutes {
		// Peak in the evening: the sinusoid bottoms out at 04:40 and
		// tops out at 16:40 simulated time.
		phase := 2 * math.Pi * float64(m%day) / day
		rps := baseRPS * (1 + dailyAmplitude*math.Sin(phase-2*math.Pi/3))
		for _, f := range crowds {
			rps *= f.multiplier(m)
		}
		// Round to a tenth of a request/sec so the CSV round-trips
		// compactly and bit-exactly.
		rps = math.Round(rps*10) / 10
		points = append(points, Point{Minute: m, RPS: rps})
	}
	return New(cfg.Start, cfg.End, points)
}
