package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/engine"
)

// layerMetric names one per-layer metric and its unit; layerMetrics is
// the list BENCHMARK.json's per_layer must equal.
type layerMetric struct{ name, unit string }

// cpuLayers and allocLayers are the layers whose profile shares are
// reported.
var (
	cpuLayers = []string{"core", "smc", "quorum", "modelcache", "cloud", "engine", "replay", "trace", "colbin",
		"market", "strategy", "telemetry", "provenance", "chaos", "workload", "stats"}
	allocLayers = []string{"core", "smc", "quorum", "cloud", "trace", "telemetry", "provenance"}
)

var layerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"core.decide_calls", "count"}, {"core.decide_s", "s"}, {"core.decide_share", "fraction"},
		{"core.decide_ms_p50", "ms"}, {"core.decide_ms_p95", "ms"}, {"core.decide_ms_max", "ms"},
		{"core.decide_alloc_mb", "MB"}, {"core.history_fetches", "count"}, {"core.history_fetch_s", "s"},
		{"core.price_reads", "count"},
		{"modelcache.lookups", "count"}, {"modelcache.hit_ratio", "fraction"}, {"modelcache.scratch_trains", "count"},
		{"modelcache.incr_trains", "count"}, {"modelcache.train_s", "s"},
		{"engine.events", "count"}, {"engine.events_instance", "count"}, {"engine.events_out_of_bid", "count"},
		{"engine.events_billing", "count"}, {"engine.events_quorum", "count"}, {"engine.events_decision", "count"},
		{"engine.events_model", "count"}, {"engine.events_fault", "count"},
		{"replay.run_s", "s"}, {"replay.kernel_s", "s"}, {"replay.kernel_share", "fraction"},
		{"replay.decisions", "count"}, {"replay.spot_launches", "count"}, {"replay.od_launches", "count"},
		{"replay.out_of_bid", "count"}, {"replay.failed_requests", "count"}, {"replay.mean_group_size", "count"},
		{"replay.cost_usd", "USD"}, {"replay.down_min", "min"}, {"replay.availability", "fraction"},
		{"replay.trace_overhead_frac", "fraction"},
		{"telemetry.observe_s", "s"}, {"telemetry.series", "count"}, {"provenance.ledger_observe_s", "s"},
		{"provenance.spans", "count"}, {"provenance.ledger_cells", "count"}, {"chaos.faults", "count"},
		{"workload.resize_steps", "count"},
		{"experiments.cells", "count"}, {"experiments.wall_s_j1", "s"}, {"experiments.wall_s_jn", "s"},
		{"experiments.scaling_eff", "fraction"},
		{"smc.train_scratch_ms", "ms"}, {"smc.train_incr_ms", "ms"}, {"smc.forecast_cold_ms", "ms"},
		{"smc.forecast_warm_ms", "ms"}, {"smc.forecast_alloc_mb", "MB"}, {"smc.minimal_bid_ns", "ns"},
		{"smc.levels_per_pool", "count"},
		{"quorum.invert_equal_us", "us"}, {"quorum.weighted_avail_us", "us"}, {"quorum.weighted_avail_kb", "kB"},
		{"quorum.evaluator_probe_ns", "ns"},
		{"colbin.decode_ms", "ms"}, {"colbin.decode_mb_per_s", "MB/s"}, {"trace.csv_read_ms", "ms"},
		{"trace.fingerprint_ms", "ms"}, {"trace.generate_ms", "ms"}, {"trace.points", "count"},
		{"cloud.advance_ms", "ms"}, {"cloud.advance_sim_min_per_s", "min/s"}, {"cloud.events", "count"},
		{"cloud.price_history_ms", "ms"},
		{"engine.publish_ns", "ns"}, {"strategy.extra_decide_us", "us"}, {"modelcache.get_hit_ns", "ns"},
		{"chaos.transform_ms", "ms"}, {"workload.plan_ms", "ms"},
	}
	for _, l := range cpuLayers {
		m = append(m, layerMetric{l + ".cpu_share", "fraction"})
	}
	m = append(m, layerMetric{"go.runtime_cpu_share", "fraction"})
	for _, l := range allocLayers {
		m = append(m, layerMetric{l + ".alloc_share", "fraction"})
	}
	return append(m, layerMetric{"go.gc_cycles", "count"}, layerMetric{"go.gc_pause_ms", "ms"}, layerMetric{"go.heap_sys_mb", "MB"})
}()

// perLayer is the traced run: an untraced reference pass over a quarter
// of the time box, then the same reps with the wrappers on under CPU and
// heap profiling over the rest, then the direct probes. Counts and
// seconds are means per traced rep.
func perLayer(w workloadDef, opt options, g *gate) (map[string]metric, error) {
	b, err := w.bind(opt.seed, opt.sizeOf(w), opt.jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if _, err := b.one(nil, 0); err != nil { // the warm-up
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	reference := pass(g, b, nil, opt.box/4, min(opt.minReps, 2))

	t := newTracer()
	heapBefore, err := heapProfile()
	if err != nil {
		return nil, err
	}
	var cpuProfile bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProfile); err != nil {
		return nil, err
	}
	traced := pass(g, b, t, opt.box-opt.box/4, opt.minReps)
	pprof.StopCPUProfile()
	t.rep = 0 // what follows — the probes — belongs to no rep
	heapAfter, err := heapProfile()
	if err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if g.failed > 0 {
		// The digest pins traced reps to untraced ones, so a wrapper that
		// is not transparent lands here.
		return nil, g.firstErr
	}

	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	t.wrapperMetrics(set, g, b, traced, reference)
	if b.sweep != nil {
		if err := sweepScaling(set, t, b, opt, reference); err != nil {
			return nil, err
		}
	}
	if err := runProbes(b, t, opt.probePasses, set); err != nil {
		return nil, err
	}
	if err := profileMetrics(set, cpuProfile.Bytes(), heapBefore, heapAfter); err != nil {
		return nil, err
	}
	var gcCycles, gcPause float64
	for _, s := range traced {
		gcCycles += float64(s.gcCount)
		gcPause += float64(s.gcPause)
	}
	set("go.gc_cycles", gcCycles/float64(len(traced)))
	set("go.gc_pause_ms", gcPause/float64(len(traced))*msPerNs)
	set("go.heap_sys_mb", float64(mem.HeapSys)*mb)

	if opt.traceDir != "" {
		if err := t.write(opt.traceDir, w.name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setter stores one per-layer metric's value.
type setter func(name string, value float64)

func wallOf(s sample) float64 { return s.wall.Seconds() }

// wrapperMetrics derives what the wrappers of the traced pass saw.
func (t *tracer) wrapperMetrics(set setter, g *gate, b *bound, traced, reference []sample) {
	reps := float64(len(traced))
	perRep := func(v float64) float64 { return v / reps }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / reps }

	var decideNs float64
	for _, d := range t.decideNs {
		decideNs += d
	}
	set("core.decide_calls", perRep(float64(len(t.decideNs))))
	set("core.decide_s", sec(int64(decideNs)))
	set("core.decide_ms_p50", median(t.decideNs)*msPerNs)
	set("core.decide_ms_p95", quantile(t.decideNs, 0.95)*msPerNs)
	set("core.decide_ms_max", quantile(t.decideNs, 1)*msPerNs)
	set("core.decide_alloc_mb", perRep(float64(t.decideAlloc)*mb))
	set("core.history_fetches", perRep(float64(t.historyN)))
	set("core.history_fetch_s", sec(t.historyNs))
	set("core.price_reads", perRep(float64(t.priceReads)))

	lookups := float64(t.cache.Hits + t.cache.Misses)
	set("modelcache.lookups", perRep(lookups))
	if lookups > 0 {
		set("modelcache.hit_ratio", float64(t.cache.Hits)/lookups)
	}
	set("modelcache.scratch_trains", perRep(float64(t.cache.ScratchTrains)))
	set("modelcache.incr_trains", perRep(float64(t.cache.IncrementalTrains)))
	set("modelcache.train_s", sec(int64(t.cache.TrainTime)))

	ev := func(kinds ...engine.Kind) (n float64) {
		for _, k := range kinds {
			n += float64(t.events[k])
		}
		return perRep(n)
	}
	var events int64
	for _, n := range t.events {
		events += n
	}
	set("engine.events", perRep(float64(events)))
	set("engine.events_instance", ev(engine.KindInstanceLaunched, engine.KindInstanceRunning, engine.KindInstanceTerminated,
		engine.KindOutageStart, engine.KindOutageEnd, engine.KindRequestFulfilled))
	set("engine.events_out_of_bid", perRep(float64(t.outOfBidEvents)))
	set("engine.events_billing", ev(engine.KindBillingClose))
	set("engine.events_quorum", ev(engine.KindQuorumUp, engine.KindQuorumDown))
	set("engine.events_decision", ev(engine.KindDecision, engine.KindResizeTarget, engine.KindResizeStep))
	set("engine.events_model", ev(engine.KindModelTrained))
	set("engine.events_fault", ev(engine.KindFaultInjected, engine.KindFaultCleared))
	set("chaos.faults", ev(engine.KindFaultInjected))
	set("workload.resize_steps", ev(engine.KindResizeStep))

	// What is left of replay.Run once the strategy and the observers are
	// taken out: provider advance, accounting, finish.
	// A sweep's strategies are built inside Env and cannot be wrapped, so
	// it has no such split.
	set("replay.run_s", sec(t.replayNs))
	if len(t.decideNs) > 0 {
		kernelNs := t.replayNs - int64(decideNs) - t.observerOutNs
		set("replay.kernel_s", sec(kernelNs))
		set("core.decide_share", decideNs/float64(t.replayNs))
		set("replay.kernel_share", float64(kernelNs)/float64(t.replayNs))
	}
	decisions := float64(t.results.decisions)
	if b.sweep != nil {
		decisions = float64(t.events[engine.KindDecision])
	}
	set("replay.decisions", perRep(decisions))
	set("replay.spot_launches", perRep(float64(t.results.spot)))
	set("replay.od_launches", perRep(float64(t.results.od)))
	set("replay.out_of_bid", perRep(float64(t.results.outOfBid)))
	set("replay.failed_requests", perRep(float64(t.results.failedReq)))
	set("replay.cost_usd", g.costUSD)
	set("replay.down_min", float64(g.downMin))
	set("replay.availability", 1-float64(g.downMin)/float64(int64(b.cells)*b.span))
	if t.replays > 0 {
		set("replay.mean_group_size", t.results.groupSum/float64(t.replays))
	}
	set("replay.trace_overhead_frac", medianOf(traced, wallOf)/medianOf(reference, wallOf)-1)

	set("telemetry.observe_s", sec(t.observerNs["telemetry"]))
	set("telemetry.series", perRep(float64(t.series)))
	set("provenance.ledger_observe_s", sec(t.observerNs["ledger"]))
	set("provenance.spans", perRep(float64(t.provSpans)))
	set("provenance.ledger_cells", perRep(float64(t.ledgerCells)))
}

// sweepScaling times the sweep at Jobs = 1 the way the reference pass
// timed it at Jobs = n: the scaling of Env's worker pool.
func sweepScaling(set setter, t *tracer, b *bound, opt options, reference []sample) error {
	var j1 []float64
	for i := 0; i < min(opt.probePasses, 3); i++ {
		end := t.begin("probe.experiments.wall_s_j1")
		t0 := time.Now()
		err := b.sweep(1)
		j1 = append(j1, time.Since(t0).Seconds())
		end()
		if err != nil {
			return err
		}
	}
	jn := medianOf(reference, wallOf)
	set("experiments.cells", float64(b.cells))
	set("experiments.wall_s_j1", median(j1))
	set("experiments.wall_s_jn", jn)
	set("experiments.scaling_eff", median(j1)/(jn*float64(opt.jobs)))
	return nil
}

// profileMetrics folds the traced pass's CPU profile, and what was
// allocated between its two heap snapshots, into per-layer shares.
func profileMetrics(set setter, cpuProfile, heapBefore, heapAfter []byte) error {
	cpu, err := foldProfile(cpuProfile, 1)
	if err != nil {
		return err
	}
	cpuShare := layerShares(cpu, nil)
	for _, l := range cpuLayers {
		set(l+".cpu_share", cpuShare[l])
	}
	set("go.runtime_cpu_share", cpuShare["go.runtime"])
	before, err := foldProfile(heapBefore, 1)
	if err != nil {
		return err
	}
	after, err := foldProfile(heapAfter, 1)
	if err != nil {
		return err
	}
	allocShare := layerShares(after, before)
	for _, l := range allocLayers {
		set(l+".alloc_share", allocShare[l])
	}
	return nil
}
