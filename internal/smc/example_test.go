package smc_test

import (
	"fmt"
	"log"

	"repro/internal/market"
	"repro/internal/smc"
	"repro/internal/spotstats"
	"repro/internal/trace"
)

// ExampleEstimator is the offline pipeline around the bidding
// framework: collect price history, validate the modeling assumptions
// (Markov property, non-memoryless sojourns, zone independence), train
// per-zone failure models, and produce bid recommendations from them
// without touching the market again.
func ExampleEstimator() {
	zones := []string{"us-east-1a", "us-west-2b", "eu-west-1b"}
	set, err := trace.Generate(trace.GenConfig{
		Seed: 7, Type: market.M1Small, Zones: zones,
		Start: 0, End: 13 * 7 * 24 * 60,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Validate the modeling assumptions per zone.
	fmt.Println("assumption checks:")
	for _, z := range zones {
		tr := set.ByZone[z]
		ck, err := spotstats.ChapmanKolmogorov(tr)
		if err != nil {
			log.Fatal(err)
		}
		ml, err := spotstats.Memorylessness(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s Markov dev %.4f; sojourn KS %.3f vs bound %.3f (semi-Markov %v)\n",
			z, ck.MeanAbsDiff, ml.KS, ml.SignificanceBound, ml.KS > ml.SignificanceBound)
	}
	r, err := spotstats.Correlation(set.ByZone[zones[0]], set.ByZone[zones[1]])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  cross-zone correlation %s x %s: %+.3f (independence holds)\n\n", zones[0], zones[1], r)

	// 2. Train the failure models.
	models := map[string]*smc.Model{}
	for _, z := range zones {
		est := smc.NewEstimator(0)
		est.Observe(set.ByZone[z])
		m, err := est.Model()
		if err != nil {
			log.Fatal(err)
		}
		models[z] = m
		sup := m.SupportSummary()
		fmt.Printf("model %-12s: %d states, %d transitions\n", z, sup.States, sup.TotalTransitions)
	}
	fmt.Println()

	// 3. Offline bid recommendations from the trained models.
	fmt.Println("bid recommendations (1h interval, out-of-bid targets 0.05 / 0.01):")
	for _, z := range zones {
		tr := set.ByZone[z]
		cur := tr.PriceAt(tr.End - 1)
		age := tr.AgeAt(tr.End - 1)
		f, err := models[z].Forecast(cur, age, 60)
		if err != nil {
			log.Fatal(err)
		}
		od, err := market.OnDemandPrice(z, market.M1Small)
		if err != nil {
			log.Fatal(err)
		}
		var parts []string
		for _, target := range []float64{0.05, 0.01} {
			if bid, ok := f.MinimalBid(target, 0, od); ok {
				parts = append(parts, fmt.Sprintf("FP<=%.2f -> %s", target, bid))
			} else {
				parts = append(parts, fmt.Sprintf("FP<=%.2f -> unreachable", target))
			}
		}
		fmt.Printf("  %-12s spot %-9s %v\n", z, cur, parts)
	}

	// Output:
	// assumption checks:
	//   us-east-1a   Markov dev 0.0113; sojourn KS 0.154 vs bound 0.027 (semi-Markov true)
	//   us-west-2b   Markov dev 0.0068; sojourn KS 0.161 vs bound 0.023 (semi-Markov true)
	//   eu-west-1b   Markov dev 0.0096; sojourn KS 0.171 vs bound 0.020 (semi-Markov true)
	//   cross-zone correlation us-east-1a x us-west-2b: -0.004 (independence holds)
	//
	// model us-east-1a  : 5 states, 2518 transitions
	// model us-west-2b  : 5 states, 3579 transitions
	// model eu-west-1b  : 5 states, 4462 transitions
	//
	// bid recommendations (1h interval, out-of-bid targets 0.05 / 0.01):
	//   us-east-1a   spot $0.0073   [FP<=0.05 -> $0.0083 FP<=0.01 -> $0.0094]
	//   us-west-2b   spot $0.009    [FP<=0.05 -> $0.009 FP<=0.01 -> $0.0102]
	//   eu-west-1b   spot $0.0094   [FP<=0.05 -> $0.0122 FP<=0.01 -> $0.0122]
}
