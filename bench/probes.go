package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/quorum"
	"repro/internal/smc"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"
)

// prober times a layer's exported functions directly, on the workload's
// first market with inputs taken at the replay's first decision minute.
type prober struct {
	t      *tracer
	passes int
	set    setter
	err    error

	b     *bound
	u     unit
	now   int64           // the first decision minute
	pools []string        // every pool key of the market
	at    *cloud.Provider // a provider standing at now
	// hist is every pool's training-window history at now; forecasts is
	// one interval forecast per pool, in pools order.
	hist      map[string]*trace.Trace
	forecasts []*smc.Forecast
}

// timed is the median wall nanoseconds of `passes` runs of fn, each
// under a probe.<metric> span. before, when set, runs untimed ahead of
// every pass.
func (p *prober) timed(name string, before func() error, fn func() error) float64 {
	v := make([]float64, 0, p.passes)
	for i := 0; i < p.passes && p.err == nil; i++ {
		if before != nil {
			if p.err = before(); p.err != nil {
				break
			}
		}
		end := p.t.begin("probe." + name)
		t0 := time.Now()
		err := fn()
		v = append(v, float64(time.Since(t0)))
		end()
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return median(v)
}

// allocated is the bytes fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

const (
	leadMinutes    = 15        // replay.Config.LeadMinutes default
	trainingWindow = 13 * week // core.Jupiter.TrainingWindow default
	probeTarget    = 0.05      // failure-probability target of the bid probes
	msPerNs        = 1.0 / 1e6 // ns → ms
	usPerNs        = 1.0 / 1e3 // ns → µs
	mb             = 1.0 / 1e6 // bytes → MB
	loopCalls      = 200000    // calls per pass of a nanosecond-scale probe
	groupsPerSize  = 24        // weighted-quorum battery: groups per size
)

// weightedGroupSizes are the member counts of the weighted-quorum
// battery.
var weightedGroupSizes = []int{5, 9, 15}

func runProbes(b *bound, t *tracer, passes int, set setter) error {
	p := &prober{t: t, passes: passes, set: set, b: b, u: b.units[0]}
	p.now = b.start() - leadMinutes
	p.pools = p.u.set.Zones()
	p.at = cloud.NewProvider(p.u.set, cloud.Config{Seed: p.u.seed, InjectHardwareFailures: true})
	p.at.AdvanceTo(p.now)

	p.traceProbes()
	p.cloudProbes()
	p.smcProbes()
	p.quorumProbes()
	p.smallProbes()
	return p.err
}

// traceProbes time the two trace readers, the fingerprint and the
// generator over the workload's market.
func (p *prober) traceProbes() {
	b, set := p.b, p.u.set
	blob := colbin.Encode(set)
	ns := p.timed("colbin.decode_ms", nil, func() error {
		file, _, err := colbin.Decode(blob, trace.Strict)
		if err != nil {
			return err
		}
		file.Set()
		return nil
	})
	p.set("colbin.decode_ms", ns*msPerNs)
	if ns > 0 {
		p.set("colbin.decode_mb_per_s", float64(len(blob))*mb/(ns/1e9))
	}
	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil && p.err == nil {
		p.err = err
	}
	p.set("trace.csv_read_ms", msPerNs*p.timed("trace.csv_read_ms", nil, func() error {
		_, err := trace.ReadCSVPools(bytes.NewReader(csv.Bytes()), set.Type, b.types, set.Start, set.End)
		return err
	}))
	p.set("trace.fingerprint_ms", msPerNs*p.timed("trace.fingerprint_ms", nil, func() error {
		set.Fingerprint()
		return nil
	}))
	p.set("trace.generate_ms", msPerNs*p.timed("trace.generate_ms", nil, func() error {
		_, err := generate(p.u.seed, set.Type, b.types, b.size)
		return err
	}))
	points := 0
	for _, tr := range set.ByZone {
		points += len(tr.Points)
	}
	p.set("trace.points", float64(points))
}

// cloudProbes time the provider alone: seven spot instances at
// on-demand bids in the cheapest pools carried to the end of the market
// in interval steps under one subscriber, and the training-window
// history fetch of every pool.
func (p *prober) cloudProbes() {
	b, set, at, pools, now := p.b, p.u.set, p.at, p.pools, p.now
	start := b.start()
	cheapest := append([]string(nil), pools...)
	price := func(z string) market.Money { m, _ := at.SpotPrice(z); return m }
	sort.SliceStable(cheapest, func(i, j int) bool { return price(cheapest[i]) < price(cheapest[j]) })
	if len(cheapest) > 7 {
		cheapest = cheapest[:7]
	}
	var events int
	end := set.End - 1
	ns := p.timed("cloud.advance_ms", nil, func() error {
		events = 0
		prov := cloud.NewProvider(set, cloud.Config{Seed: p.u.seed, InjectHardwareFailures: true})
		prov.Subscribe(&engine.Hooks{
			Instance: func(engine.Event) { events++ },
			Billing:  func(engine.Event) { events++ },
		})
		prov.AdvanceTo(start)
		for _, z := range cheapest {
			bid, err := market.PoolOnDemandPrice(z, b.spec.Type)
			if err != nil {
				return err
			}
			if _, err := prov.RequestSpot(z, b.spec.Type, bid); err != nil {
				return err
			}
		}
		for m := start + b.interval; m < end; m += b.interval {
			prov.AdvanceTo(m)
		}
		prov.AdvanceTo(end)
		return nil
	})
	p.set("cloud.advance_ms", ns*msPerNs)
	if ns > 0 {
		p.set("cloud.advance_sim_min_per_s", float64(end-start)/(ns/1e9))
	}
	p.set("cloud.events", float64(events))

	p.hist = make(map[string]*trace.Trace, len(pools))
	p.set("cloud.price_history_ms", msPerNs*p.timed("cloud.price_history_ms", nil, func() error {
		for _, z := range pools {
			h, err := at.PriceHistory(z, now-trainingWindow, now)
			if err != nil {
				return err
			}
			p.hist[z] = h
		}
		return nil
	}))
}

// smcProbes time model estimation and forecasting, summed over every
// pool of the market.
func (p *prober) smcProbes() {
	if p.err != nil {
		return
	}
	b, at, pools, hist, now := p.b, p.at, p.pools, p.hist, p.now
	models := make([]*smc.Model, len(pools))
	train := func() error {
		for i, z := range pools {
			e := smc.NewEstimator(0)
			e.Observe(hist[z])
			m, err := e.Model()
			if err != nil {
				return err
			}
			models[i] = m
		}
		return nil
	}
	p.set("smc.train_scratch_ms", msPerNs*p.timed("smc.train_scratch_ms", nil, train))

	// The incremental path: a window ending a week earlier, slid forward
	// one week.
	windowed := make([]*smc.WindowedEstimator, len(pools))
	p.set("smc.train_incr_ms", msPerNs*p.timed("smc.train_incr_ms", func() error {
		for i, z := range pools {
			windowed[i] = smc.NewWindowedEstimator(0)
			full := p.u.set.ByZone[z]
			from := max(full.Start, now-week-trainingWindow)
			if err := windowed[i].Advance(full.Window(from, now-week), from, now-week); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i, z := range pools {
			if err := windowed[i].Advance(hist[z], hist[z].Start, hist[z].End); err != nil {
				return err
			}
			if _, err := windowed[i].Model(); err != nil {
				return err
			}
		}
		return nil
	}))

	forecasts := make([]*smc.Forecast, len(pools))
	cur, age := make([]market.Money, len(pools)), make([]int64, len(pools))
	for i, z := range pools {
		cur[i], _ = at.SpotPrice(z)
		age[i], _ = at.SpotPriceAge(z)
	}
	forecast := func() error {
		for i := range pools {
			f, err := models[i].Forecast(cur[i], age[i], b.interval)
			if err != nil {
				return err
			}
			forecasts[i] = f
		}
		return nil
	}
	// Cold is the first Forecast on a model nothing has queried; warm is
	// the same call again.
	var coldAlloc []float64
	p.set("smc.forecast_cold_ms", msPerNs*p.timed("smc.forecast_cold_ms", train, func() (err error) {
		coldAlloc = append(coldAlloc, float64(allocated(func() { err = forecast() })))
		return err
	}))
	p.set("smc.forecast_alloc_mb", median(coldAlloc)*mb)
	p.set("smc.forecast_warm_ms", msPerNs*p.timed("smc.forecast_warm_ms", nil, forecast))
	if p.err != nil {
		return
	}
	p.forecasts = forecasts

	levels := 0
	for _, f := range forecasts {
		levels += len(f.Levels())
	}
	p.set("smc.levels_per_pool", float64(levels)/float64(len(pools)))
	od := make([]market.Money, len(pools))
	for i, z := range pools {
		od[i], _ = market.PoolOnDemandPrice(z, b.spec.Type)
	}
	rounds := loopCalls / len(pools)
	p.set("smc.minimal_bid_ns", p.timed("smc.minimal_bid_ns", nil, func() error {
		for r := 0; r < rounds; r++ {
			for i, f := range forecasts {
				f.MinimalBid(probeTarget, market.OnDemandFailureProbability, od[i])
			}
		}
		return nil
	})/float64(rounds*len(pools)))
}

// quorumProbes time the availability math: the equal-probability
// inversion the zone planner memoises, and the weighted unit-sum DP the
// pool planner calls, over a seeded battery of groups drawn from the
// market's pools with their capacity units and forecast failure
// probabilities.
func (p *prober) quorumProbes() {
	if p.err != nil {
		return
	}
	b, pools, forecasts := p.b, p.pools, p.forecasts
	target := b.spec.TargetAvailability()
	lo := max(b.spec.DataShards, 1)
	p.set("quorum.invert_equal_us", usPerNs*p.timed("quorum.invert_equal_us", nil, func() error {
		for n := lo; n <= len(pools); n++ {
			// An unreachable target is an answer, not a probe failure.
			_, _ = quorum.InvertEqualFP(n, b.spec.QuorumSize(n), target)
		}
		return nil
	})/float64(len(pools)-lo+1))

	type group struct {
		t     int
		units []int
		fps   []float64
	}
	rng := stats.NewRNG(p.u.seed)
	var groups []group
	members := 0
	for _, size := range weightedGroupSizes {
		size = min(size, len(pools))
		for g := 0; g < groupsPerSize; g++ {
			gr := group{units: make([]int, size), fps: make([]float64, size)}
			total := 0
			for i, k := range rng.Perm(len(pools))[:size] {
				u, err := market.PoolCapacityUnits(pools[k], b.spec.Type)
				if err != nil {
					p.err = err
					return
				}
				gr.units[i] = u
				total += u
				od, _ := market.PoolOnDemandPrice(pools[k], b.spec.Type)
				gr.fps[i] = probeTarget
				if bid, ok := forecasts[k].MinimalBid(probeTarget, market.OnDemandFailureProbability, od); ok {
					gr.fps[i] = forecasts[k].FailureProbability(bid, market.OnDemandFailureProbability)
				}
			}
			gr.t = b.spec.QuorumUnits(total)
			groups = append(groups, gr)
			members += size
		}
	}
	var bytesPerPass []float64
	ns := p.timed("quorum.weighted_avail_us", nil, func() error {
		bytesPerPass = append(bytesPerPass, float64(allocated(func() {
			for _, g := range groups {
				quorum.WeightedThresholdAvailability(g.t, g.units, g.fps)
			}
		})))
		return nil
	})
	p.set("quorum.weighted_avail_us", ns*usPerNs/float64(len(groups)))
	p.set("quorum.weighted_avail_kb", median(bytesPerPass)/1e3/float64(len(groups)))
	p.set("quorum.evaluator_probe_ns", p.timed("quorum.evaluator_probe_ns", nil, func() error {
		for _, g := range groups {
			ev := quorum.NewWeightedThresholdEvaluator(g.t, g.units, g.fps)
			for i, fp := range g.fps {
				ev.WithNode(i, fp/2)
			}
		}
		return nil
	})/float64(members))
}

// smallProbes are one call each into the remaining layers.
func (p *prober) smallProbes() {
	if p.err != nil {
		return
	}
	b, at, pools, hist, now := p.b, p.at, p.pools, p.hist, p.now
	fan := engine.Fanout{engine.BaseObserver{}}
	p.set("engine.publish_ns", p.timed("engine.publish_ns", nil, func() error {
		for i := 0; i < loopCalls; i++ {
			fan.Publish(engine.Event{Minute: now, Kind: engine.KindInstanceRunning, Zone: pools[0]})
		}
		return nil
	})/loopCalls)

	extra := strategy.Extra{ExtraNodes: 2, Portion: 0.2}
	const decides = 200
	p.set("strategy.extra_decide_us", usPerNs*p.timed("strategy.extra_decide_us", nil, func() error {
		for i := 0; i < decides; i++ {
			if _, err := extra.Decide(at, b.spec, b.interval); err != nil {
				return err
			}
		}
		return nil
	})/decides)

	cache := modelcache.New()
	key := modelcache.Key{Zone: pools[0], From: hist[pools[0]].Start, Until: now}
	fetch := func() (*trace.Trace, error) { return hist[pools[0]], nil }
	if _, _, err := cache.Get(key, fetch); err != nil {
		p.err = err
		return
	}
	p.set("modelcache.get_hit_ns", p.timed("modelcache.get_hit_ns", nil, func() error {
		for i := 0; i < loopCalls; i++ {
			if _, _, err := cache.Get(key, fetch); err != nil {
				return err
			}
		}
		return nil
	})/loopCalls)

	// The price-spike overlay rejects typed pools ("set type m1.small,
	// trace type c3.large"), so only single-type markets have this probe.
	if len(b.types) == 0 {
		scenario, _ := chaos.Builtin(chaosScenarios[0])
		p.set("chaos.transform_ms", msPerNs*p.timed("chaos.transform_ms", nil, func() error {
			eng, err := chaos.New(scenario, p.u.seed, b.start())
			if err != nil {
				return err
			}
			_, err = eng.TransformTraces(p.u.set)
			return err
		}))
	}

	load := p.u.load
	if load == nil {
		var err error
		if load, err = workload.Generate(workload.GenConfig{Seed: p.u.seed, Start: b.start(), End: p.u.set.End}); err != nil {
			p.err = err
			return
		}
	}
	scaler := workload.DefaultAutoscaler(b.spec.BaseNodes)
	p.set("workload.plan_ms", msPerNs*p.timed("workload.plan_ms", nil, func() error {
		_, err := scaler.Plan(load)
		return err
	}))
}
