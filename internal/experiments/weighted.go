package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/quorum"
)

// WeightedVotingReport quantifies the §4.1 design discussion: Jupiter
// keeps a simple majority quorum with equalized per-node failure
// targets instead of the theoretically optimal weighted voting. This
// analysis takes one real Jupiter decision, evaluates the chosen bids'
// heterogeneous failure probabilities, and compares the service
// availability of a simple majority against the Equation 11 optimal
// weighted-voting assignment on the same nodes.
type WeightedVotingReport struct {
	Zones                []string
	FailureProbabilities []float64
	MajorityAvailability float64
	WeightedAvailability float64
	// GapDowntimeSecMonth converts the availability gap to seconds of
	// monthly downtime given up by using simple majority.
	GapDowntimeSecMonth float64
}

// WeightedVotingAnalysis runs one Jupiter decision on the lock-service
// market, at the end of the training weeks and trained on them, and
// compares quorum rules over the chosen instance set.
func (e Env) WeightedVotingAnalysis() (*WeightedVotingReport, error) {
	set, err := e.Traces(market.M1Small)
	if err != nil {
		return nil, err
	}
	now := e.TrainWeeks * Week
	if now < set.Start || now >= set.End {
		return nil, fmt.Errorf("experiments: weighted-voting decision at minute %d outside the market [%d, %d)", now, set.Start, set.End)
	}
	view := cloud.NewProvider(set, cloud.Config{})
	view.AdvanceTo(now)
	j := core.New()
	decision, err := j.Decide(view, LockSpec(), 60)
	if err != nil {
		return nil, err
	}
	if len(decision.Bids) == 0 {
		return nil, fmt.Errorf("experiments: Jupiter fell back to on-demand")
	}
	fps := j.LastBidFailureProbabilities()
	rep := &WeightedVotingReport{}
	for _, b := range decision.Bids {
		rep.Zones = append(rep.Zones, b.Zone)
	}
	sort.Strings(rep.Zones)
	for _, z := range rep.Zones {
		rep.FailureProbabilities = append(rep.FailureProbabilities, fps[z])
	}
	n := len(rep.FailureProbabilities)
	rep.MajorityAvailability = quorum.Availability(quorum.Majority(n), rep.FailureProbabilities)
	rep.WeightedAvailability = quorum.Availability(quorum.OptimalSystem(rep.FailureProbabilities), rep.FailureProbabilities)
	rep.GapDowntimeSecMonth = quorum.DowntimeSeconds(rep.MajorityAvailability, quorum.SecondsPerMonth) -
		quorum.DowntimeSeconds(rep.WeightedAvailability, quorum.SecondsPerMonth)
	return rep, nil
}

// renderWeightedVoting prints the analysis.
func renderWeightedVoting(r *WeightedVotingReport) string {
	var b strings.Builder
	b.WriteString("Analysis: simple majority vs optimal weighted voting (§4.1)\n")
	fmt.Fprintf(&b, "%-18s %s\n", "zone", "per-interval FP at chosen bid")
	for i, z := range r.Zones {
		fmt.Fprintf(&b, "%-18s %.6f\n", z, r.FailureProbabilities[i])
	}
	fmt.Fprintf(&b, "majority availability:       %.10f\n", r.MajorityAvailability)
	fmt.Fprintf(&b, "weighted-voting availability: %.10f\n", r.WeightedAvailability)
	fmt.Fprintf(&b, "downtime given up by majority: %.2f s/month\n", r.GapDowntimeSecMonth)
	return b.String()
}
