package replay_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// ExampleRun replays four weeks of spot market under every bidding
// strategy — the on-demand baseline, the Extra(m, p) heuristics, and
// Jupiter — and prints the resulting cost/availability table, a small
// version of the paper's Figures 6 and 7.
func ExampleRun() {
	const week = 7 * 24 * 60
	const trainWeeks, replayWeeks = 13, 4
	set, err := trace.Generate(trace.GenConfig{
		Seed:  99,
		Type:  market.M1Small,
		Zones: market.ExperimentZones(),
		Start: 0,
		End:   (trainWeeks + replayWeeks) * week,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := strategy.ServiceSpec{Type: market.M1Small, BaseNodes: 5, DataShards: 1}

	strategies := []strategy.Strategy{
		strategy.OnDemand{},
		strategy.Extra{ExtraNodes: 0, Portion: 0.1},
		strategy.Extra{ExtraNodes: 0, Portion: 0.2},
		strategy.Extra{ExtraNodes: 2, Portion: 0.2},
		core.New(),
	}

	fmt.Printf("4-week lock-service replay, 1h bidding interval, target availability %.7f\n\n",
		spec.TargetAvailability())
	fmt.Printf("%-14s %-12s %-14s %-10s %s\n", "strategy", "cost", "availability", "out-of-bid", "mean nodes")
	for _, s := range strategies {
		res, err := replay.Run(replay.Config{
			Traces:                 set,
			Start:                  trainWeeks * week,
			Spec:                   spec,
			Strategy:               s,
			IntervalMinutes:        60,
			Seed:                   99,
			InjectHardwareFailures: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-12s %-14.6f %-10d %.2f\n",
			res.Strategy, res.Cost, res.Availability, res.OutOfBid, res.MeanGroupSize)
	}

	// Output:
	// 4-week lock-service replay, 1h bidding interval, target availability 0.9999901
	//
	// strategy       cost         availability   out-of-bid mean nodes
	// Baseline       $148.06      1.000000       0          5.00
	// Extra(0, 0.1)  $16.6823     0.792926       1360       5.00
	// Extra(0, 0.2)  $33.0515     0.999033       224        5.00
	// Extra(2, 0.2)  $46.8344     0.998065       310        7.00
	// Jupiter        $41.2824     1.000000       39         6.32
}
