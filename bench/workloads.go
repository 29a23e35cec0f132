package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"
)

const (
	week = experiments.Week
	day  = int64(24 * 60)
)

// siblings are the three extra instance types of the 68-pool market:
// m1.small base + these, across the 17 experiment zones.
var siblings = []market.InstanceType{market.M1Medium, market.C3Large, market.R3Large}

// size is a workload's scale: how many seed-derived markets one rep
// replays, and each market's span — whole training weeks, then the
// replayed minutes.
type size struct {
	markets       int
	trainWeeks    int64
	replayMinutes int64
}

// smokeSize is what bench_test.go runs every workload at.
var smokeSize = size{markets: 1, trainWeeks: 2, replayMinutes: 2 * day}

// cell is the outcome of one replay (one sweep cell): what the result
// digest and the invariants are computed over.
type cell struct {
	label        string
	cost         market.Money
	availability float64
	total, down  int64
	decisions    int
	spot, od     int
	outOfBid     int
	failedReq    int
	meanGroup    float64
}

func cellOf(label string, r *replay.Result) cell {
	return cell{
		label: label, cost: r.Cost, availability: r.Availability,
		total: r.TotalMinutes, down: r.DownMinutes,
		decisions: r.Decisions, spot: r.SpotLaunch, od: r.OnDemandLaunch,
		outOfBid: r.OutOfBid, failedReq: r.FailedRequests, meanGroup: r.MeanGroupSize,
	}
}

// unit is one generated market of a workload and the seed of everything
// replayed on it.
type unit struct {
	seed uint64
	set  *trace.Set
	blob []byte          // colbin encoding of set, where the rep decodes it
	load *workload.Trace // request-rate trace, where the rep autoscales
}

// bound is a workload bound to the inputs generated from one seed.
type bound struct {
	size  size
	units []unit
	spec  strategy.ServiceSpec
	types []market.InstanceType
	// interval is the bidding interval in minutes.
	interval int64
	// cells is the number of ops (replays or sweep cells) one rep runs;
	// span is the simulated minutes each of them must account.
	cells int
	span  int64
	// one runs the workload on unit k: a rep is one call per unit, the
	// warm-up after a set-up is unit 0 alone. tr is nil on the untraced
	// pass; on the traced pass the replays are routed through it.
	one func(tr *tracer, k int) ([]cell, error)
	// sweep, when set, replays the workload's sweep at a given Jobs
	// width (the experiments.* scaling probe).
	sweep func(jobs int) error
}

// rep runs one unit of work: every unit once.
func (b *bound) rep(tr *tracer) ([]cell, error) {
	cells := make([]cell, 0, b.cells)
	for k := range b.units {
		c, err := b.one(tr, k)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
	}
	return cells, nil
}

func (b *bound) start() int64 { return b.size.trainWeeks * week }

// workloadDef is one named entry of BENCHMARK.json.
type workloadDef struct {
	name string
	size size
	bind func(seed uint64, sz size, jobs int) (*bound, error)
}

// Every rep replays several markets, not one: what a replay costs
// depends on the market (price levels per pool, how often bids fail),
// and summing over independent markets is what keeps a run at one seed
// comparable with a run at another.
var workloads = []workloadDef{
	{name: "jupiter_pools68", size: size{8, 6, day}, bind: bindJupiter(experiments.LockSpec(), siblings, 3*60)},
	{name: "jupiter_storage17_paper", size: size{8, 13, 11 * week}, bind: bindJupiter(experiments.StorageSpec(), nil, 6*60)},
	{name: "extra_pools68_colbin", size: size{12, 13, 11 * week}, bind: bindExtraColbin},
	{name: "jupiter_chaos_observed", size: size{8, 6, 2 * week}, bind: bindChaosObserved},
	{name: "fig67_sweep_paper", size: size{2, 13, 11 * week}, bind: bindFig67},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func generate(seed uint64, base market.InstanceType, types []market.InstanceType, sz size) (*trace.Set, error) {
	return trace.Generate(trace.GenConfig{
		Seed: seed, Type: base, Types: types,
		Zones: market.ExperimentZones(),
		Start: 0, End: sz.trainWeeks*week + sz.replayMinutes,
	})
}

// newBound generates the workload's markets. Market k's seed is the
// run's seed advanced k golden-ratio steps, so runs at neighbouring
// seeds share no market.
func newBound(seed uint64, sz size, spec strategy.ServiceSpec, types []market.InstanceType, interval int64) (*bound, error) {
	b := &bound{size: sz, spec: spec, types: types, interval: interval, cells: sz.markets}
	for k := 0; k < sz.markets; k++ {
		u := unit{seed: seed + uint64(k)*0x9E3779B97F4A7C15}
		var err error
		if u.set, err = generate(u.seed, spec.Type, types, sz); err != nil {
			return nil, err
		}
		b.units = append(b.units, u)
	}
	// A replay with the default End accounts up to the last simulable
	// minute, End-1.
	b.span = b.units[0].set.End - 1 - b.start()
	return b, nil
}

// config is the replay every workload starts from: default kernel,
// hardware failures on, a model cache private to the replay.
func (b *bound) config(u unit, strat strategy.Strategy) replay.Config {
	return replay.Config{
		Traces: u.set, Start: b.start(),
		Spec: b.spec, Strategy: strat, IntervalMinutes: b.interval,
		Seed: u.seed, InjectHardwareFailures: true,
		Models: modelcache.New(),
	}
}

// replayEach makes the workload one replay per unit.
func (b *bound) replayEach(label string, cfg func(tr *tracer, u unit) (replay.Config, error)) {
	b.one = func(tr *tracer, k int) ([]cell, error) {
		c, err := cfg(tr, b.units[k])
		if err != nil {
			return nil, err
		}
		res, err := tr.run(label, c)
		if err != nil {
			return nil, err
		}
		return []cell{cellOf(fmt.Sprintf("%s#%d", label, k), res)}, nil
	}
}

// bindJupiter is a workload of plain Jupiter replays, one per market.
func bindJupiter(spec strategy.ServiceSpec, types []market.InstanceType, interval int64) func(uint64, size, int) (*bound, error) {
	return func(seed uint64, sz size, _ int) (*bound, error) {
		b, err := newBound(seed, sz, spec, types, interval)
		if err != nil {
			return nil, err
		}
		b.replayEach("jupiter", func(_ *tracer, u unit) (replay.Config, error) { return b.config(u, core.New()), nil })
		return b, nil
	}
}

func bindExtraColbin(seed uint64, sz size, _ int) (*bound, error) {
	b, err := newBound(seed, sz, experiments.LockSpec(), siblings, 3*60)
	if err != nil {
		return nil, err
	}
	for k := range b.units {
		b.units[k].blob = colbin.Encode(b.units[k].set)
	}
	b.replayEach("extra", func(tr *tracer, u unit) (replay.Config, error) {
		defer tr.begin("decode")()
		file, _, err := colbin.Decode(u.blob, trace.Strict)
		if err != nil {
			return replay.Config{}, err
		}
		u.set = file.Set()
		return b.config(u, strategy.Extra{ExtraNodes: 2, Portion: 0.2}), nil
	})
	return b, nil
}

// chaosScenarios are replayed back to back on every market of a
// jupiter_chaos_observed rep.
var chaosScenarios = []string{"storm-surge", "flash-crowd+reclaim-storm"}

func bindChaosObserved(seed uint64, sz size, _ int) (*bound, error) {
	b, err := newBound(seed, sz, experiments.LockSpec(), nil, 3*60)
	if err != nil {
		return nil, err
	}
	for k := range b.units {
		u := &b.units[k]
		if u.load, err = workload.Generate(workload.GenConfig{Seed: u.seed, Start: b.start(), End: u.set.End}); err != nil {
			return nil, err
		}
	}
	scenarios := make([]chaos.Scenario, len(chaosScenarios))
	for i, name := range chaosScenarios {
		sc, ok := chaos.Builtin(name)
		if !ok {
			return nil, fmt.Errorf("bench: no chaos builtin %q", name)
		}
		scenarios[i] = sc
	}
	b.cells = len(b.units) * len(scenarios)
	b.one = func(tr *tracer, k int) ([]cell, error) {
		u := b.units[k]
		cells := make([]cell, 0, len(scenarios))
		for i := range scenarios {
			cfg := b.config(u, core.New())
			cfg.Chaos, cfg.ChaosSeed, cfg.Workload = &scenarios[i], u.seed, u.load
			reg := telemetry.NewRegistry()
			collector := telemetry.NewCollector(reg, telemetry.Labels{
				Service: "lock", Strategy: "Jupiter", Interval: "3h", Scenario: scenarios[i].Name,
			})
			cfg.Spans = provenance.NewRecorder(1)
			ledger := provenance.NewLedger()
			ledger.WatchStages(cfg.Spans)
			cfg.Observers = []engine.Observer{collector, ledger}
			res, err := tr.run(scenarios[i].Name, cfg)
			if err != nil {
				return nil, err
			}
			collector.CloseRun(cfg.Start + res.TotalMinutes)
			ledger.CloseRun(cfg.Start + res.TotalMinutes)
			tr.observed(reg, ledger, cfg.Spans)
			cells = append(cells, cellOf(fmt.Sprintf("%s#%d", scenarios[i].Name, k), res))
		}
		return cells, nil
	}
	return b, nil
}

// sweepStrategies is the size of the §5.5 roster Env.Fig6and7 replays
// at each of experiments.SweepIntervals.
const sweepStrategies = 4

func bindFig67(seed uint64, sz size, jobs int) (*bound, error) {
	b, err := newBound(seed, sz, experiments.LockSpec(), nil, 60)
	if err != nil {
		return nil, err
	}
	b.cells = len(b.units) * len(experiments.SweepIntervals) * sweepStrategies
	sweep := func(tr *tracer, k, jobs int) ([]cell, error) {
		u := b.units[k]
		rows, err := tr.sweep(experiments.Env{
			Seed: u.seed, TrainWeeks: sz.trainWeeks, ReplayWeeks: sz.replayMinutes / week,
			Jobs: jobs, TraceSet: u.set, Models: modelcache.New(),
		})
		if err != nil {
			return nil, err
		}
		cells := make([]cell, len(rows))
		for i, r := range rows {
			// A SweepRow carries availability, not minutes; every cell
			// accounts the same span, so the down minutes follow.
			cells[i] = cell{
				label: fmt.Sprintf("%s@%dh#%d", r.Strategy, r.IntervalHours, k),
				cost:  r.Cost, availability: r.Availability, total: b.span,
				down:     int64(float64(b.span)*(1-r.Availability) + 0.5),
				outOfBid: r.OutOfBid, meanGroup: r.MeanGroupSize,
			}
		}
		return cells, nil
	}
	b.one = func(tr *tracer, k int) ([]cell, error) { return sweep(tr, k, jobs) }
	b.sweep = func(jobs int) error {
		for k := range b.units {
			if _, err := sweep(nil, k, jobs); err != nil {
				return err
			}
		}
		return nil
	}
	return b, nil
}
