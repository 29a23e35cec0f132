package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/smc"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// --- Table 1 ---

// Table1 returns the region catalog (paper Table 1).
func Table1() []market.Region { return market.Regions() }

// --- Figure 1 ---

// Fig1 reproduces the Figure 1 artifact: a two-hour spot price history
// sample for a us-east-1a m1.small instance at one-minute resolution.
func (e Env) Fig1() (*trace.Trace, error) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: e.Seed, Type: market.M1Small,
		Zones: []string{"us-east-1a"},
		Start: 0, End: e.TrainWeeks * Week,
	})
	if err != nil {
		return nil, err
	}
	tr := set.ByZone["us-east-1a"]
	// A deterministic mid-trace morning window (9:00–11:00 of some day).
	day := e.TrainWeeks * Week / 2 / (24 * 60) * (24 * 60)
	lo := day + 9*60
	hi := lo + 2*60
	if hi >= tr.End {
		lo, hi = tr.Start, min(tr.Start+120, tr.End)
	}
	return tr.Window(lo, hi), nil
}

// --- Figure 4 ---

// Fig4Zones are the five availability zones shown in the figure.
var Fig4Zones = []string{"us-east-1a", "us-west-2b", "ap-northeast-1a", "eu-west-1c", "sa-east-1b"}

// Fig4Row is one bar of Figure 4: the measured out-of-bid failure
// probability of a bid chosen for an estimated probability of 0.01.
type Fig4Row struct {
	Zone     string
	Type     market.InstanceType
	TargetFP float64
	Bid      market.Money
	Measured float64
}

// Fig4 trains the spot-instance failure model per zone, picks the
// minimal bid with estimated month-scale out-of-bid probability <= 0.01,
// and measures the realized out-of-bid fraction on a held-out month.
func (e Env) Fig4() ([]Fig4Row, error) {
	const target = 0.01
	const holdout = 4 * Week // "the month's spot prices data"
	var rows []Fig4Row
	for _, it := range []market.InstanceType{market.M1Small, market.M3Large} {
		set, err := trace.Generate(trace.GenConfig{
			Seed: e.Seed, Type: it,
			Zones: Fig4Zones,
			Start: 0, End: e.TrainWeeks*Week + holdout,
		})
		if err != nil {
			return nil, err
		}
		for _, zone := range Fig4Zones {
			full := set.ByZone[zone]
			train := full.Window(0, e.TrainWeeks*Week)
			test := full.Window(e.TrainWeeks*Week, full.End)
			est := smc.NewEstimator(0)
			est.Observe(train)
			model, err := est.Model()
			if err != nil {
				return nil, fmt.Errorf("experiments: fig4 %s/%s: %w", zone, it, err)
			}
			f, err := model.Stationary()
			if err != nil {
				return nil, err
			}
			od, err := market.OnDemandPrice(zone, it)
			if err != nil {
				return nil, err
			}
			// Out-of-bid probability only: fp0 = 0 (Figure 4 measures
			// out-of-bid failures, not SLA outages).
			bid, ok := f.MinimalBid(target, 0, od)
			if !ok {
				bid = od // cap at on-demand, the framework's rule
			}
			rows = append(rows, Fig4Row{
				Zone:     zone,
				Type:     it,
				TargetFP: target,
				Bid:      bid,
				Measured: test.FractionAbove(bid),
			})
		}
	}
	return rows, nil
}

// --- Figure 5 ---

// Fig5 reproduces the one-week feasibility run (§5.4): Jupiter vs
// Extra(0, 0.1) vs the on-demand baseline, with 1-hour bidding
// intervals, for both experimental services: one bar per service and
// strategy, with the observed availability alongside.
func (e Env) Fig5() ([]SweepRow, error) {
	e.ReplayWeeks = 1
	var cells []cell
	for _, spec := range []strategy.ServiceSpec{LockSpec(), StorageSpec()} {
		set, err := e.Traces(spec.Type)
		if err != nil {
			return nil, err
		}
		for _, build := range []strategy.Builder{
			func() strategy.Strategy { return core.New() },
			func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0.1} },
			func() strategy.Strategy { return strategy.OnDemand{} },
		} {
			cells = append(cells, e.cell(set, spec, build, 1))
		}
	}
	return e.tabulate(cells)
}

// --- §3 worked example ---

// Example3Result carries the §3 arithmetic: the availability of a
// 5-node on-demand deployment, its expected monthly downtime, and the
// measured downtime when the same service naively bids the current spot
// price in five zones.
type Example3Result struct {
	OnDemandAvailability float64
	OnDemandDowntimeSec  float64
	NaiveAvailability    float64
	NaiveDowntimeSec     float64
}

// Example3 reproduces the §3 worked example.
func (e Env) Example3() (Example3Result, error) {
	var out Example3Result
	out.OnDemandAvailability = quorum.AvailabilityEqual(5, 3, market.OnDemandFailureProbability)
	out.OnDemandDowntimeSec = quorum.DowntimeSeconds(out.OnDemandAvailability, quorum.SecondsPerMonth)

	// Naive spot bidding: bid exactly the spot price (Extra(0, 0)) and
	// replay one month.
	e.TrainWeeks, e.ReplayWeeks = 2, 4
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return out, err
	}
	naive := func() strategy.Strategy { return strategy.Extra{ExtraNodes: 0, Portion: 0} }
	results, err := e.runGrid([]cell{e.cell(set, LockSpec(), naive, 1)})
	if err != nil {
		return out, err
	}
	out.NaiveAvailability = results[0].Availability
	// Scale measured downtime to a 30-day month.
	out.NaiveDowntimeSec = (1 - out.NaiveAvailability) * quorum.SecondsPerMonth
	return out, nil
}
