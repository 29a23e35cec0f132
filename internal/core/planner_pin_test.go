package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Two recorded planners pin today's decisions, each as a sha256 over the
// grid of pinPlanner: the renderDecide line of every Decide.
//
// Zone markets. Until commit 29f1590 a view of bare-zone pools was
// planned by a second enumeration inside Decide (hardenQuorum,
// refineBids, emitChosenZone); the pool planner now plans every view.
// The zone pin was first recorded at 29f1590, with every feasible row of
// the candidate table in the line, then read from an accessor on
// Jupiter; the rows now come from the decision's candidate spans, which
// carry the same figures. The planner has since stopped pricing
// the group sizes that cannot win, so the rows after the cheapest are no
// longer listed: the pin was re-recorded at commit 1035ab1 — which still
// listed them, and matched the 29f1590 pin — under the truncated
// rendering, which lists the feasible rows only up to the first
// cheapest one.
//
// Typed markets. 68 (zone × type) pools, m1.small or m3.large as the base
// type beside three sibling types, recorded at commit 1035ab1, the last
// planner that priced every group size.
//
// A pin's short hash covers the first two markets (what -short and -race
// run), its full hash all of them. A mismatch means a decision moved; -v
// prints each cell's first Decide so that two commits can be diffed.
// Never re-record to make a change pass: list the cell, both decisions
// and the reason in CHANGES.md.
const (
	zonePinShort  = "67ac63a680fb00959620ec7deb67cad1f9ab1a137a3058a045e9abf17817ea24"
	zonePinFull   = "994b149550881aad589c63a30cba1fb87c2a41c28ef80317050b5ae4a61f86ca"
	typedPinShort = "664fb7dcacb45a95f43dc7d4d171e3f2fc4ad582667335ca44892c82e76a3d32"
	typedPinFull  = "61d03dc13671f7afe046bb7f9d95cb8edcf9dad01cff7d815380f6f927b8e31e"
)

// loadView attaches an autoscaler load target to a view.
type loadView struct {
	traceView
	target int
}

func (v loadView) TargetNodes() (int, bool) { return v.target, true }

// renderDecide writes one Decide's observable outcome as a line: the
// decision, the feasible rows of its candidate table (j traced it) up to
// the first with the lowest cost bound, and the bid failure
// probabilities' bits.
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
	cands := lastCandidates(j)
	cheapest := -1
	for i, c := range cands {
		if c.Feasible && (cheapest < 0 || c.CostUpper < cands[cheapest].CostUpper) {
			cheapest = i
		}
	}
	for _, c := range cands[:cheapest+1] {
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

// pinPlanner hashes the grid — per market, the lock and θ(3,5) services ×
// every estimator mode × refinement off and on × no, one and thirteen
// faulted zones × load targets 0, 7 and 20 × 24 consecutive 3 h Decides —
// over the 17 experiment zones, each carrying the service's type and one
// pool of every type in types. It checks the first two markets against
// pinShort, and under -short or -race stops there; otherwise all of them
// against pinFull.
func pinPlanner(t *testing.T, markets int, types []market.InstanceType, pinShort, pinFull string) {
	const (
		trainWeeks = 3
		interval   = 180
		decides    = 24
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
				Seed: seed, Type: sp.spec.Type, Types: types, Zones: zones,
				Start: 0, End: trainWeeks*week + decides*interval,
			})
			if err != nil {
				t.Fatal(err)
			}
			type cell struct {
				name       string
				mode       EstimatorMode
				refine     bool
				faulted    []string
				loadTarget int
				lines      []string
			}
			var cells []*cell
			for _, mode := range []EstimatorMode{ModeInterval, ModeStationary, ModeOneStep} {
				for _, refine := range []bool{false, true} {
					for _, load := range faultLoads {
						for _, loadTarget := range []int{0, 7, 20} {
							cells = append(cells, &cell{
								name: fmt.Sprintf("market %d %s mode %d refine %v %s load-target %d",
									seed, sp.name, mode, refine, load.name, loadTarget),
								mode: mode, refine: refine, faulted: load.zones, loadTarget: loadTarget,
							})
						}
					}
				}
			}
			// Cells are independent, so they run on every processor; the
			// hash reads them in grid order.
			models := modelcache.New() // training is not under test: once per market and type
			next := make(chan *cell)
			var wg sync.WaitGroup
			for w := 0; w < runtime.GOMAXPROCS(0); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := range next {
						j := New()
						j.Mode, j.Refine = c.mode, c.refine
						j.UseModelCache(models)
						for _, z := range c.faulted {
							j.OnFault(fault(z, trainWeeks*week-1))
						}
						for d := int64(0); d < decides; d++ {
							base := traceView{set: set, now: trainWeeks*week + d*interval}
							var view strategy.MarketView = base
							if c.loadTarget > 0 {
								view = loadView{traceView: base, target: c.loadTarget}
							}
							traced(j) // a fresh recorder per Decide keeps one decision's spans
							dec, err := j.Decide(view, sp.spec, interval)
							c.lines = append(c.lines, renderDecide(j, dec, err))
						}
					}
				}()
			}
			for _, c := range cells {
				next <- c
			}
			close(next)
			wg.Wait()
			for _, c := range cells {
				t.Logf("%s: %s", c.name, c.lines[0])
				for d, line := range c.lines {
					fmt.Fprintf(h, "%s decide %d: %s\n", c.name, d, line)
				}
			}
		}
		if m+1 == shortCut {
			if got := hex.EncodeToString(h.Sum(nil)); got != pinShort {
				t.Fatalf("first %d markets hash to %s, the recorded planner %s", shortCut, got, pinShort)
			}
			if testing.Short() || raceDetector {
				return
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinFull {
		t.Fatalf("%d markets hash to %s, the recorded planner %s", markets, got, pinFull)
	}
}

func TestZoneDecisionsMatchRecordedPlanner(t *testing.T) {
	pinPlanner(t, 6, nil, zonePinShort, zonePinFull)
}

func TestTypedDecisionsMatchRecordedPlanner(t *testing.T) {
	pinPlanner(t, 4, []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}, typedPinShort, typedPinFull)
}
