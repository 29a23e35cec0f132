package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// The zone planner's decisions, recorded from it before it was deleted.
//
// Until PR 17 a view of bare-zone pools was planned by a second
// enumeration inside Decide (hardenQuorum, refineBids, emitChosenZone);
// the pool planner now plans every view. These two sha256 values were
// computed by this test, unchanged, at commit 29f1590 — the last one
// that had the zone planner — over the grid below: the rendered
// Decision, the feasible rows of LastCandidates() and the
// LastBidFailureProbabilities() bits of every Decide. plannerPinShort
// covers the first two markets (what -short and -race run, like the
// rebid grid), plannerPinFull all six. A mismatch means a zone-only
// decision moved; -v prints each cell's first Decide so that two
// commits can be diffed. Never re-record to make a change pass: list
// the cell, both decisions and the reason in CHANGES.md.
const (
	plannerPinShort = "96cb480479f3b0a4ab5002af0ef5cf68d8abddcd946cf24f975d1d492466660b"
	plannerPinFull  = "b890370ef8ff0fa9b6e614dffc7c5ad5c3e77057d7d414ed314455672ba7f414"
)

// loadView attaches an autoscaler load target to a view.
type loadView struct {
	traceView
	target int
}

func (v loadView) TargetNodes() (int, bool) { return v.target, true }

// renderDecide writes one Decide's observable outcome as a line.
func renderDecide(j *Jupiter, d strategy.Decision, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error %v", err)
		return b.String()
	}
	b.WriteString("bids")
	for _, bid := range d.Bids {
		fmt.Fprintf(&b, " %s=%d", bid.Zone, bid.Price)
	}
	fmt.Fprintf(&b, " | on-demand %s | feasible", strings.Join(d.OnDemand, ","))
	for _, c := range j.LastCandidates() {
		if c.Feasible {
			fmt.Fprintf(&b, " %d:%x:%d", c.Nodes, math.Float64bits(c.FPTarget), c.CostUpper)
		}
	}
	b.WriteString(" | fp")
	fps := j.LastBidFailureProbabilities()
	keys := make([]string, 0, len(fps))
	for z := range fps {
		keys = append(keys, z)
	}
	sort.Strings(keys)
	for _, z := range keys {
		fmt.Fprintf(&b, " %s:%x", z, math.Float64bits(fps[z]))
	}
	return b.String()
}

func TestZoneDecisionsMatchRecordedPlanner(t *testing.T) {
	const (
		trainWeeks = 3
		interval   = 180
		decides    = 24
		markets    = 6
		shortCut   = 2
	)
	specs := []struct {
		name string
		spec strategy.ServiceSpec
	}{
		{"lock", lockSpec()},
		{"theta(3,5)", strategy.ServiceSpec{Type: market.M3Large, BaseNodes: 5, DataShards: 3}},
	}
	zones := market.ExperimentZones()
	faultLoads := []struct {
		name  string
		zones []string
	}{{"healthy", nil}, {"1-faulted", zones[:1]}, {"13-faulted", zones[:13]}}

	h := sha256.New()
	for m := 0; m < markets; m++ {
		seed := 2014 + uint64(m)*0x9E3779B97F4A7C15
		for _, sp := range specs {
			set, err := trace.Generate(trace.GenConfig{
				Seed: seed, Type: sp.spec.Type, Zones: zones,
				Start: 0, End: trainWeeks*week + decides*interval,
			})
			if err != nil {
				t.Fatal(err)
			}
			models := modelcache.New() // training is not under test: once per market and type
			for _, mode := range []EstimatorMode{ModeInterval, ModeStationary, ModeOneStep} {
				for _, refine := range []bool{false, true} {
					for _, load := range faultLoads {
						for _, loadTarget := range []int{0, 7, 20} {
							cell := fmt.Sprintf("market %d %s mode %d refine %v %s load-target %d",
								seed, sp.name, mode, refine, load.name, loadTarget)
							j := New()
							j.Mode, j.Refine, j.Models = mode, refine, models
							for _, z := range load.zones {
								j.OnFault(fault(z, trainWeeks*week-1))
							}
							for d := int64(0); d < decides; d++ {
								base := traceView{set: set, now: trainWeeks*week + d*interval}
								var view strategy.MarketView = base
								if loadTarget > 0 {
									view = loadView{traceView: base, target: loadTarget}
								}
								dec, err := j.Decide(view, sp.spec, interval)
								line := renderDecide(j, dec, err)
								if d == 0 {
									t.Logf("%s: %s", cell, line)
								}
								fmt.Fprintf(h, "%s decide %d: %s\n", cell, d, line)
							}
						}
					}
				}
			}
		}
		if m+1 == shortCut {
			if got := hex.EncodeToString(h.Sum(nil)); got != plannerPinShort {
				t.Fatalf("first %d markets hash to %s, the zone planner recorded %s", shortCut, got, plannerPinShort)
			}
			if testing.Short() || raceDetector {
				return
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != plannerPinFull {
		t.Fatalf("%d markets hash to %s, the zone planner recorded %s", markets, got, plannerPinFull)
	}
}
