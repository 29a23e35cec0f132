// Command jupiter runs the bidding framework interactively against the
// simulated spot market, printing the online bidding algorithm's
// decision at each interval: the group size candidates it evaluated,
// the per-node failure target, and the bids it placed.
//
// Usage:
//
//	jupiter [-service lock|storage] [-interval H] [-steps N] [-seed N] [-train N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	service := flag.String("service", "lock", "lock or storage")
	interval := flag.Int64("interval", 1, "bidding interval in hours")
	steps := flag.Int("steps", 6, "number of bidding intervals to run")
	seed := flag.Uint64("seed", 2014, "seed")
	train := flag.Int64("train", 13, "training prefix in weeks")
	flag.Parse()

	if err := run(*service, *interval, *steps, *seed, *train); err != nil {
		fmt.Fprintln(os.Stderr, "jupiter:", err)
		os.Exit(1)
	}
}

func run(service string, intervalHours int64, steps int, seed uint64, trainWeeks int64) error {
	var spec strategy.ServiceSpec
	switch service {
	case "lock":
		spec = experiments.LockSpec()
	case "storage":
		spec = experiments.StorageSpec()
	default:
		return fmt.Errorf("unknown service %q", service)
	}
	horizon := trainWeeks*experiments.Week + int64(steps+2)*intervalHours*60 + 60
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: spec.Type,
		Zones: market.ExperimentZones(),
		Start: 0, End: horizon,
	})
	if err != nil {
		return err
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: seed})
	provider.AdvanceTo(trainWeeks * experiments.Week)
	j := core.New()

	fmt.Printf("Jupiter bidding framework — %s service, %dh intervals\n", service, intervalHours)
	fmt.Printf("availability target: %.7f (5 on-demand nodes, quorum %d-of-5)\n\n",
		spec.TargetAvailability(), spec.QuorumSize(5))

	for s := 0; s < steps; s++ {
		now := provider.Now()
		d, err := j.Decide(provider, spec, intervalHours*60)
		if err != nil {
			return err
		}
		fmt.Printf("interval %d (minute %d):\n", s+1, now)
		fmt.Printf("  %-4s %-10s %-12s %s\n", "n", "fp-target", "feasible", "bid-sum upper bound")
		for _, c := range j.LastCandidates() {
			if c.FPTarget == 0 && !c.Feasible {
				continue
			}
			fmt.Printf("  %-4d %-10.5f %-12v %s\n", c.Nodes, c.FPTarget, c.Feasible, c.CostUpper)
		}
		if len(d.Bids) > 0 {
			fmt.Printf("  decision: %d spot instances\n", len(d.Bids))
			for _, b := range d.Bids {
				cur, _ := provider.SpotPrice(b.Zone)
				fmt.Printf("    %-18s bid %-10s (spot now %s)\n", b.Zone, b.Price, cur)
			}
		} else {
			fmt.Printf("  decision: fall back to on-demand in %v\n", d.OnDemand)
		}
		fmt.Println()
		provider.AdvanceTo(now + intervalHours*60)
	}
	return nil
}
