package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/quorum"
	"repro/internal/strategy"
)

// heteroTypes is the 4-type catalog of the heterogeneous acceptance
// sweep: the m1.small base plus three siblings of different shapes.
func heteroTypes() []market.InstanceType {
	return []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}
}

// TestHeteroSweepNotWorseThanZoneOnly is the pool framework's
// acceptance gate: over the 4-type × 17-zone chaos-free market, the
// capacity-weighted planner must match or beat the zone-only planner —
// availability no lower, cost no higher — at every swept interval.
// The guarantee comes from construction (the zone-only selection stays
// in the candidate race, and a heterogeneous portfolio only displaces
// it when it dominates on both planned and expected cost), and this
// test pins it end to end through the replay.
func TestHeteroSweepNotWorseThanZoneOnly(t *testing.T) {
	spec := LockSpec()
	for _, hours := range []int64{1, 3, 6} {
		ez := QuickEnv()
		setz, err := ez.Traces(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		rz, err := replayOnce(ez, setz, spec, core.New(), hours)
		if err != nil {
			t.Fatal(err)
		}

		eh := QuickEnv()
		eh.Types = heteroTypes()
		seth, err := eh.Traces(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(seth.Zones()), 4*len(market.ExperimentZones()); got != want {
			t.Fatalf("heterogeneous market has %d pools, want %d (4 types x 17 zones)", got, want)
		}
		rh, err := replayOnce(eh, seth, spec, core.New(), hours)
		if err != nil {
			t.Fatal(err)
		}

		if rh.Cost > rz.Cost {
			t.Errorf("interval %dh: heterogeneous cost %v exceeds zone-only %v", hours, rh.Cost, rz.Cost)
		}
		if rh.Availability < rz.Availability {
			t.Errorf("interval %dh: heterogeneous availability %.6f below zone-only %.6f",
				hours, rh.Availability, rz.Availability)
		}
	}
}

// TestHeteroSweepRunsFullMatrix exercises the full sweep machinery over
// the heterogeneous market: every (strategy, interval) cell completes
// and Jupiter still meets the Equation 10 availability constraint.
func TestHeteroSweepRunsFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full heterogeneous sweep is slow")
	}
	env := QuickEnv()
	env.Types = heteroTypes()
	env.Jobs = 4
	rows, err := env.Sweep(LockSpec(), "lock")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SweepIntervals)*4 {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), len(SweepIntervals)*4)
	}
	target := LockSpec().TargetAvailability()
	for _, r := range rows {
		if strings.HasPrefix(r.Strategy, "Jupiter") && r.Availability < target {
			t.Errorf("%s at %dh: availability %.6f below target %.7f",
				r.Strategy, r.IntervalHours, r.Availability, target)
		}
	}
}

// shapeLaunches records every pool an instance is launched in, with
// the type it runs as, through Env.Observe.
type shapeLaunches struct {
	engine.BaseObserver
	base market.InstanceType
	mu   *sync.Mutex
	seen map[string]market.InstanceType
}

func (o shapeLaunches) OnInstance(e engine.Event) {
	if e.Kind != engine.KindInstanceLaunched {
		return
	}
	_, it := market.ParsePool(e.Zone, o.base)
	o.mu.Lock()
	o.seen[e.Zone] = it
	o.mu.Unlock()
}

// TestEverySectionHonoursShape: with Types [c3.large] and a 2-vCPU
// minimum, no section that replays the market launches an instance in
// a bare-zone m1.small (1 vCPU) pool, and the weighted-voting decision
// picks none.
func TestEverySectionHonoursShape(t *testing.T) {
	if testing.Short() {
		t.Skip("replays six sections")
	}
	env := QuickEnv()
	env.Types = []market.InstanceType{market.C3Large}
	env.MinVCPU = 2
	env.Jobs = 2
	var mu sync.Mutex
	seen := map[string]market.InstanceType{}
	env.Observe = func(spec strategy.ServiceSpec, _ string, _ int64) []engine.Observer {
		return []engine.Observer{shapeLaunches{base: spec.Type, mu: &mu, seen: seen}}
	}
	sections := []struct {
		name string
		run  func() error
	}{
		{"fig5", func() error { _, err := env.Fig5(); return err }},
		{"example3", func() error { _, err := env.Example3(); return err }},
		{"sweep", func() error { _, err := env.Sweep(LockSpec(), "lock"); return err }},
		{"ablation", func() error { _, err := env.AblationEstimators(); return err }},
		{"adaptive", func() error { _, err := env.AblationAdaptiveInterval(); return err }},
	}
	for _, sec := range sections {
		clear(seen)
		if err := sec.run(); err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
		if len(seen) == 0 {
			t.Fatalf("%s launched no instance", sec.name)
		}
		for pool, it := range seen {
			if !market.ShapeSatisfies(it, env.MinVCPU, env.MinMemGiB) {
				t.Errorf("%s launched in pool %s (%s) below the %d-vCPU shape", sec.name, pool, it, env.MinVCPU)
			}
		}
	}
	rep, err := env.WeightedVotingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range rep.Zones {
		if _, it := market.ParsePool(pool, market.M1Small); !market.ShapeSatisfies(it, env.MinVCPU, env.MinMemGiB) {
			t.Errorf("weighted: decision picked pool %s (%s) below the %d-vCPU shape", pool, it, env.MinVCPU)
		}
	}
}

// TestTracesDropsPoolsBelowShape: Env.Traces keeps exactly the pools
// whose type meets the shape, each with its own trace; Jupiter still
// finds a spot portfolio meeting Eq. 10 over the heavier survivors;
// and a shape no pool offers fails before any replay, naming the shape
// and the market's base type.
func TestTracesDropsPoolsBelowShape(t *testing.T) {
	env := QuickEnv()
	env.Types = []market.InstanceType{market.M3Large, market.M1Medium, market.M3Medium, market.C3Large, market.R3Large}
	full, err := env.Traces(market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	env.TraceSet = full
	env.MinVCPU = 2 // only m3.large, c3.large, r3.large qualify
	set, err := env.Traces(market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(set.ByZone), 3*len(market.ExperimentZones()); got != want {
		t.Fatalf("shaped market has %d pools, want %d (3 types x 17 zones)", got, want)
	}
	for pool, tr := range full.ByZone {
		_, it := market.ParsePool(pool, market.M1Small)
		if kept, ok := set.ByZone[pool]; ok != market.ShapeSatisfies(it, env.MinVCPU, 0) || ok && kept != tr {
			t.Fatalf("pool %s (%s): kept %v with trace %p, want kept iff it has 2 vCPU, with trace %p", pool, it, ok, kept, tr)
		}
	}

	// The equalized per-node probability is derived for base-node
	// groups; the group-specific rebid repair must still find a spot
	// portfolio over the heavier pools rather than fall back to
	// on-demand.
	spec := LockSpec()
	view := cloud.NewProvider(set, cloud.Config{})
	view.AdvanceTo(env.TrainWeeks * Week)
	j := core.New()
	d, err := j.Decide(view, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bids) == 0 || len(d.OnDemand) > 0 {
		t.Fatalf("shaped decision bids %d spot, %d on-demand; want an all-spot portfolio", len(d.Bids), len(d.OnDemand))
	}
	var units []int
	var fps []float64
	total := 0
	for _, b := range d.Bids {
		u, err := market.PoolCapacityUnits(b.Zone, spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
		fps = append(fps, j.LastBidFailureProbabilities()[b.Zone])
		total += u
	}
	if avail := quorum.WeightedThresholdAvailability(spec.QuorumUnits(total), units, fps); avail < spec.TargetAvailability() {
		t.Fatalf("shaped decision availability %v below target %v", avail, spec.TargetAvailability())
	}

	env.MinVCPU = 1024
	cells := 0
	env.Observe = func(strategy.ServiceSpec, string, int64) []engine.Observer { cells++; return nil }
	_, err = env.Sweep(spec, "lock")
	if err == nil || !strings.Contains(err.Error(), "m1.small market offers 1024 vCPU") {
		t.Fatalf("unsatisfiable shape: error %v, want one naming 1024 vCPU and m1.small", err)
	}
	if cells != 0 {
		t.Fatalf("unsatisfiable shape replayed %d cells before failing", cells)
	}
}
