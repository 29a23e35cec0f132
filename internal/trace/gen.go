package trace

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/market"
	"repro/internal/stats"
)

// Tick is the spot-price quantum: $0.0001, the EC2 price granularity.
const Tick market.Money = 100

// ZoneModel is the ground-truth semi-Markov price process of one
// (zone, instance type) pair. The synthetic generator draws traces from
// it; the estimator under test (internal/smc) never sees these
// parameters and must recover the dynamics from sampled history, exactly
// as the paper's estimator learns from AWS price history.
type ZoneModel struct {
	Zone     string
	Type     market.InstanceType
	OnDemand market.Money

	// Levels are the distinct prices the process visits, ascending.
	// The last level is a "spike" above the on-demand price.
	Levels []market.Money
	// Trans[i] are the transition weights out of level i (diagonal
	// zero); rows are normalized when sampling.
	Trans [][]float64
	// SojournMu/SojournSigma are per-level lognormal parameters for the
	// sojourn time in minutes.
	SojournMu    []float64
	SojournSigma []float64
}

// hashZone derives a stable 64-bit identity for a (zone, type) pair.
func hashZone(zone string, it market.InstanceType) uint64 {
	h := fnv.New64a()
	h.Write([]byte(zone))
	h.Write([]byte{'/'})
	h.Write([]byte(it))
	return h.Sum64()
}

// roundTick rounds a price to the EC2 $0.0001 granularity.
func roundTick(m market.Money) market.Money {
	return (m + Tick/2) / Tick * Tick
}

// ZoneModelFor builds the calibrated ground-truth model for a zone. The
// per-zone personality (base price fraction, volatility, spike rate) is
// derived deterministically from the seed and the zone identity, so every
// zone behaves differently but reproducibly. Calibration targets the
// price shapes the paper reports: m1.small spot around $0.0071–$0.0117
// against on-demand $0.044–$0.061, with occasional spikes above
// on-demand (see DESIGN.md §4).
func ZoneModelFor(zone string, it market.InstanceType, seed uint64) (*ZoneModel, error) {
	od, err := market.OnDemandPrice(zone, it)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed ^ hashZone(zone, it))

	baseFrac := 0.13 + 0.09*r.Float64()               // spot base as fraction of on-demand
	escalation := 0.03 + 0.15*r.Float64()             // upward pressure above the floor band
	spikiness := 0.001 + 0.03*r.Float64()*r.Float64() // spike entry probability
	spikeMult := 1.25 + r.Float64()                   // spike level as multiple of on-demand
	sojournBase := 25 + 50*r.Float64()                // mean sojourn at the lowest level, minutes

	base := od.Scale(baseFrac)
	ratios := []float64{1.0, 1.14, 1.30, 1.55, 1.90}
	levels := make([]market.Money, 0, len(ratios)+1)
	for _, f := range ratios {
		p := roundTick(base.Scale(f))
		if len(levels) > 0 && p <= levels[len(levels)-1] {
			p = levels[len(levels)-1] + Tick
		}
		levels = append(levels, p)
	}
	spike := roundTick(od.Scale(spikeMult))
	if spike <= levels[len(levels)-1] {
		spike = levels[len(levels)-1] + Tick
	}
	levels = append(levels, spike)

	n := len(levels)
	spikeIdx := n - 1
	trans := make([][]float64, n)
	for i := range trans {
		trans[i] = make([]float64, n)
	}
	// The 2014 market changed price many times per hour but almost
	// always oscillated within a narrow floor band, with occasional
	// escalations and rare spikes above on-demand. Model: the two
	// cheapest levels ping-pong (L0 can only go up, L1 strongly
	// mean-reverts down), and each further rung is reached with the
	// per-zone escalation pressure, decaying with height.
	for i := 0; i < spikeIdx; i++ {
		up := 1.0
		if i >= 1 {
			up = escalation * pow(0.6, i-1)
		}
		if i+1 < spikeIdx {
			trans[i][i+1] = up
		}
		if i-1 >= 0 {
			trans[i][i-1] = 1.0
		}
		if i+2 < spikeIdx {
			trans[i][i+2] = 0.1 * up
		}
		if i-2 >= 0 {
			trans[i][i-2] = 0.25
		}
		// Spikes enter from the upper half of the normal ladder.
		switch {
		case i >= spikeIdx-2:
			trans[i][spikeIdx] = spikiness
		case i == spikeIdx-3:
			trans[i][spikeIdx] = spikiness * 0.3
		}
	}
	// A spike decays back to the cheap end of the ladder.
	trans[spikeIdx][0] = 1.0
	trans[spikeIdx][1] = 1.0
	if spikeIdx > 2 {
		trans[spikeIdx][2] = 0.5
	}

	mu := make([]float64, n)
	sigma := make([]float64, n)
	for i := 0; i < n; i++ {
		mean := sojournBase * pow(0.75, i)
		if i == spikeIdx {
			mean = 3 + 10*r.Float64() // spikes are short
		}
		const s = 0.7
		sigma[i] = s
		mu[i] = lnMean(mean, s)
	}

	return &ZoneModel{
		Zone:         zone,
		Type:         it,
		OnDemand:     od,
		Levels:       levels,
		Trans:        trans,
		SojournMu:    mu,
		SojournSigma: sigma,
	}, nil
}

func pow(b float64, k int) float64 {
	p := 1.0
	for i := 0; i < k; i++ {
		p *= b
	}
	return p
}

// lnMean returns the lognormal mu yielding the requested arithmetic mean
// for the given sigma: E[exp(N(mu, sigma))] = exp(mu + sigma^2/2).
func lnMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// walkStep is one visit of the level walk underlying a generated
// trace: the process sits at Levels[level] from minute until the next
// step.
type walkStep struct {
	minute int64
	level  int
}

// walk draws the level walk of the semi-Markov process over
// [start, end) — the zone's demand shock, independent of the price
// ladder it is rendered on. Correlated sibling types replay the same
// walk on their own ladders (see Generate).
func (m *ZoneModel) walk(r *stats.RNG, start, end int64) []walkStep {
	if end <= start {
		return nil
	}
	cats := make([]*stats.Categorical, len(m.Trans))
	for i, row := range m.Trans {
		cats[i] = stats.NewCategorical(row)
	}
	// Start in one of the two cheapest levels; the process spends most
	// of its time there, mirroring real spot floors.
	level := r.Intn(2)
	now := start
	var steps []walkStep
	for now < end {
		steps = append(steps, walkStep{minute: now, level: level})
		d := int64(m.sampleSojourn(r, level))
		if d < 1 {
			d = 1
		}
		now += d
		level = cats[level].Sample(r)
	}
	return steps
}

// renderWalk renders a sibling type's trace from the zone's shared
// level walk: the same change minutes and base levels (the demand
// shock), the sibling's own price ladder, plus a deterministic
// per-type level offset drawn from the sibling's RNG so the columns
// are correlated but not copies. Spikes are shared — when the zone
// spikes, every type in it spikes.
func (m *ZoneModel) renderWalk(r *stats.RNG, steps []walkStep, start, end int64) *Trace {
	t := &Trace{Zone: m.Zone, Type: m.Type, Start: start, End: end}
	spikeIdx := len(m.Levels) - 1
	for _, s := range steps {
		lvl := s.level
		if lvl < spikeIdx {
			switch u := r.Float64(); {
			case u < 0.12:
				lvl++
			case u < 0.24:
				lvl--
			}
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= spikeIdx {
				lvl = spikeIdx - 1
			}
		}
		t.Points = append(t.Points, PricePoint{Minute: s.minute, Price: m.Levels[lvl]})
	}
	return t
}

func (m *ZoneModel) sampleSojourn(r *stats.RNG, level int) float64 {
	return r.LogNormFloat64(m.SojournMu[level], m.SojournSigma[level])
}

// GenConfig parameterizes synthetic trace-set generation.
type GenConfig struct {
	Seed  uint64
	Type  market.InstanceType
	Zones []string
	Start int64 // inclusive, minutes
	End   int64 // exclusive, minutes
	// Types lists additional instance types to generate per zone, as
	// correlated pool columns: each sibling type replays the zone's
	// base-type level walk (the shared demand shock) on its own price
	// ladder with a deterministic per-type offset. The base Type's
	// column is byte-identical with or without Types. Entries equal to
	// Type or repeated are ignored.
	Types []market.InstanceType
}

// Generate produces a trace set with one independent trace per zone —
// plus, when cfg.Types is set, one correlated trace per (zone, extra
// type) pool keyed "zone/type". Traces are reproducible: the same
// config yields the same set, and each zone's traces are independent of
// the order or presence of other zones.
func Generate(cfg GenConfig) (*Set, error) {
	if cfg.End < cfg.Start {
		return nil, fmt.Errorf("trace: generate span [%d, %d) invalid", cfg.Start, cfg.End)
	}
	var extras []market.InstanceType
	seen := map[market.InstanceType]bool{cfg.Type: true}
	for _, it := range cfg.Types {
		if !seen[it] {
			seen[it] = true
			extras = append(extras, it)
		}
	}
	set := NewSet(cfg.Type, cfg.Start, cfg.End)
	for _, zone := range cfg.Zones {
		model, err := ZoneModelFor(zone, cfg.Type, cfg.Seed)
		if err != nil {
			return nil, err
		}
		r := stats.NewRNG(cfg.Seed ^ hashZone(zone, cfg.Type) ^ 0xabcdef123456)
		steps := model.walk(r, cfg.Start, cfg.End)
		tr := &Trace{Zone: model.Zone, Type: model.Type, Start: cfg.Start, End: cfg.End}
		for _, s := range steps {
			tr.Points = append(tr.Points, PricePoint{Minute: s.minute, Price: model.Levels[s.level]})
		}
		if err := set.Add(tr); err != nil {
			return nil, err
		}
		for _, it := range extras {
			sib, err := ZoneModelFor(zone, it, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rs := stats.NewRNG(cfg.Seed ^ hashZone(zone, it) ^ 0xabcdef123456)
			if err := set.AddPool(sib.renderWalk(rs, steps, cfg.Start, cfg.End)); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}
