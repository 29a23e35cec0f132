// Command replay runs a bidding strategy over a spot-price trace and
// reports cost and availability — one cell of the paper's Figures 6–9
// at a time, or a sweep of intervals in one go.
//
// Usage:
//
//	replay [-strategy jupiter|baseline|extra] [-extra-nodes N] [-extra-portion P]
//	       [-service lock|storage] [-interval H[,H...]] [-weeks N] [-train N] [-seed N]
//	       [-types a,b,c] [-min-vcpu N] [-min-mem G]
//	       [-trace file] [-workload file.csv] [-j N] [-model-stats]
//	       [-chaos scenario] [-chaos-seed N]
//	       [-events-out file.jsonl] [-manifest file.json] [-debug-addr host:port]
//	       [-mutex-profile-fraction N] [-block-profile-rate N]
//
// -types widens the market into heterogeneous (zone × instance type)
// pools: each listed type adds one correlated pool per zone (synthetic
// runs) or admits that type's rows from the trace file, and pool-aware
// strategies bid across the whole portfolio with capacity-weighted
// quorums. -min-vcpu / -min-mem constrain which instance shapes may
// host the service; a constraint rejecting every pool is an error.
//
// -workload arms traffic-driven autoscaling from a request-rate CSV
// ("minute,rps", see cmd/tracegen workload): between interval
// boundaries the group gradually grows toward the load target
// (charging each new member its view-change/startup delay before it
// counts toward quorum) and drains surplus one member at a time, each
// detach re-verified against the quorum floor and the Eq. 10
// availability bound. A flat workload — or none — reproduces the
// paper's fixed-n runs byte-identically.
//
// Without -trace, a synthetic trace set is generated from the seed.
// A trace file's format is detected from its bytes: the columnar
// binary format (cmd/tracegen -format colbin, or "tracegen convert"),
// JSON, or CSV. Binary and JSON traces are self-describing, so their
// base instance type must match the service's; CSV is filtered
// against the requested types and span as before.
// With several comma-separated intervals, the cells replay on a worker
// pool of -j goroutines and a summary table is printed; a single
// interval keeps the detailed report.
//
// Telemetry: -events-out streams the run's event history as versioned
// JSONL (byte-reproducible for a fixed seed and single interval; see
// `analyze diff`), -manifest writes an end-of-run summary (config,
// seed, wall time, metric snapshot; "-" = stdout), and -debug-addr
// serves live /metrics and /debug/pprof over HTTP while the run is in
// flight (-mutex-profile-fraction / -block-profile-rate turn on the
// runtime's contention sampling for the mutex and block profiles).
//
// Provenance: -spans-out records every decision's provenance spans —
// the candidate groups considered, the dominance rule that rejected
// alternatives, the chosen bids and their Eq. 10 margin — as versioned
// JSONL (inspect with "analyze explain"), and -attrib-out writes the
// cost/downtime attribution ledger, every billed cent and downtime
// minute folded into (pool, cause) cells (render with "analyze
// attribute"). See DESIGN.md §2.8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

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

// options carries the parsed command line.
type options struct {
	stratName    string
	extraNodes   int
	extraPortion float64
	service      string
	intervalSpec string
	weeks        int64
	train        int64
	seed         uint64
	traceFile    string
	workloadFile string
	seriesOut    string
	jobs         int
	modelStats   bool
	eventsOut    string
	spansOut     string
	spansSample  int
	attribOut    string
	manifestOut  string
	debugAddr    string
	mutexFrac    int
	blockRate    int
	chaosSpec    string
	chaosSeed    uint64
	lenient      bool
	typesSpec    string
	minVCPU      int
	minMem       float64

	// workloadArmed is set by run() when the workload's autoscaler plan
	// actually moves the group size; trace metadata carries the workload
	// keys only then, so constant-workload headers stay byte-identical
	// to fixed-size ones.
	workloadArmed bool
}

func main() {
	var o options
	flag.StringVar(&o.stratName, "strategy", "jupiter", "jupiter, baseline, or extra")
	flag.IntVar(&o.extraNodes, "extra-nodes", 0, "m of Extra(m, p)")
	flag.Float64Var(&o.extraPortion, "extra-portion", 0.2, "p of Extra(m, p)")
	flag.StringVar(&o.service, "service", "lock", "lock or storage")
	flag.StringVar(&o.intervalSpec, "interval", "1", "bidding interval in hours; comma-separate several to sweep them")
	flag.Int64Var(&o.weeks, "weeks", 11, "replay length in weeks")
	flag.Int64Var(&o.train, "train", 13, "training prefix in weeks")
	flag.Uint64Var(&o.seed, "seed", 2014, "seed")
	flag.StringVar(&o.traceFile, "trace", "", "trace file, format auto-detected: colbin binary, JSON, or CSV (default: synthetic)")
	flag.StringVar(&o.workloadFile, "workload", "", "request-rate CSV (minute,rps): autoscale the group to the traffic between interval boundaries")
	flag.StringVar(&o.seriesOut, "series", "", "write per-interval downtime series CSV to this file ('-' = stdout); single interval only")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "worker-pool width for an interval sweep (1 = sequential; results are identical either way)")
	flag.BoolVar(&o.modelStats, "model-stats", false, "print the shared price-model cache's hit/train counters at the end")
	flag.StringVar(&o.eventsOut, "events-out", "", "write the simulation event trace as JSONL to this file ('-' = stdout)")
	flag.StringVar(&o.spansOut, "spans-out", "", "write the run's decision-provenance spans as JSONL to this file (see cmd/analyze explain)")
	flag.IntVar(&o.spansSample, "spans-sample", 1, "with -spans-out, trace every Nth decision (1 = all)")
	flag.StringVar(&o.attribOut, "attrib-out", "", "write the run's cost/downtime attribution as JSON to this file ('-' = stdout)")
	flag.StringVar(&o.manifestOut, "manifest", "", "write an end-of-run summary manifest (JSON) to this file ('-' = stdout)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve live /metrics and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	flag.IntVar(&o.mutexFrac, "mutex-profile-fraction", 0, "sample 1/N of mutex contention events for /debug/pprof/mutex (0 = off)")
	flag.IntVar(&o.blockRate, "block-profile-rate", 0, "sample blocking events >= N ns for /debug/pprof/block (0 = off)")
	flag.StringVar(&o.chaosSpec, "chaos", "", "fault-injection scenario: a builtin name ("+strings.Join(chaos.BuiltinNames(), ", ")+") or a JSON scenario file")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "override the chaos scenario's seed (0 = use the scenario's own)")
	flag.BoolVar(&o.lenient, "lenient-traces", false, "quarantine malformed trace rows instead of failing the read (default: strict, first bad row is an error)")
	flag.StringVar(&o.typesSpec, "types", "", "comma-separated extra instance types: bid across (zone, type) pools instead of zones only")
	flag.IntVar(&o.minVCPU, "min-vcpu", 0, "minimum vCPUs an instance type must offer to host the service (0 = unconstrained)")
	flag.Float64Var(&o.minMem, "min-mem", 0, "minimum memory in GiB an instance type must offer (0 = unconstrained)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// parseIntervals parses the comma-separated -interval list. Every
// element must be a positive whole number of hours; anything else —
// an empty element, a non-integer, zero, a negative — is rejected with
// an error naming the offending element.
func parseIntervals(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty -interval list (want positive hours, e.g. -interval 1,3,6)")
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			return nil, fmt.Errorf("empty element in -interval list %q", s)
		}
		h, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("interval %q is not a whole number of hours", part)
		}
		if h <= 0 {
			return nil, fmt.Errorf("interval %q is not positive (want hours >= 1)", part)
		}
		out = append(out, h)
	}
	return out, nil
}

// telemetrySink is the optional observability wiring of a run.
type telemetrySink struct {
	reg    *telemetry.Registry
	writer *telemetry.TraceWriter
	debug  *telemetry.DebugServer
	start  time.Time
}

// newTelemetrySink builds whatever the flags asked for; a fully empty
// sink keeps the replay unobserved (and its hot path event-free).
func newTelemetrySink(o options) (*telemetrySink, error) {
	s := &telemetrySink{start: time.Now()}
	needRegistry := o.manifestOut != "" || o.debugAddr != ""
	if needRegistry {
		s.reg = telemetry.NewRegistry()
	}
	if o.eventsOut != "" {
		var w io.Writer = os.Stdout
		if o.eventsOut != "-" {
			f, err := os.Create(o.eventsOut)
			if err != nil {
				return nil, err
			}
			w = f
		}
		tw, err := telemetry.NewTraceWriter(w, traceMeta(o))
		if err != nil {
			return nil, err
		}
		s.writer = tw
	}
	if o.debugAddr != "" {
		// The mutex and block profiles are empty unless the runtime
		// samples them; both rates cost nothing at 0 and only matter
		// alongside a live pprof endpoint, so they are gated on it.
		if o.mutexFrac > 0 {
			runtime.SetMutexProfileFraction(o.mutexFrac)
		}
		if o.blockRate > 0 {
			runtime.SetBlockProfileRate(o.blockRate)
		}
		d, err := telemetry.ServeDebug(o.debugAddr, s.reg)
		if err != nil {
			return nil, err
		}
		s.debug = d
		fmt.Fprintf(os.Stderr, "replay: serving /metrics and /debug/pprof on http://%s\n", d.Addr())
	}
	return s, nil
}

// active reports whether any observer needs the event stream.
func (s *telemetrySink) active() bool { return s.reg != nil || s.writer != nil }

// observers builds the observer list for one replay cell. The
// Collector carries per-run state, so every cell gets its own; the
// registry and trace writer are shared.
func (s *telemetrySink) observers(o options, hours int64) ([]engine.Observer, *telemetry.Collector) {
	var obs []engine.Observer
	var col *telemetry.Collector
	if s.reg != nil {
		col = telemetry.NewCollector(s.reg, telemetry.Labels{
			Service:  o.service,
			Strategy: o.stratName,
			Interval: fmt.Sprintf("%dh", hours),
		})
		obs = append(obs, col)
	}
	if s.writer != nil {
		obs = append(obs, s.writer)
	}
	return obs, col
}

// close finalizes the sink: flushes the trace, writes the manifest,
// stops the debug endpoint.
func (s *telemetrySink) close(o options) error {
	var firstErr error
	if s.writer != nil {
		if err := s.writer.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.manifestOut != "" {
		m := telemetry.NewManifest("replay", o.seed, manifestConfig(o), s.start, s.reg)
		if err := m.WriteFile(o.manifestOut); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.debug != nil {
		if err := s.debug.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func traceMeta(o options) map[string]string {
	kv := []string{
		"command", "replay",
		"strategy", o.stratName,
		"service", o.service,
		"interval", o.intervalSpec,
		"weeks", strconv.FormatInt(o.weeks, 10),
		"train", strconv.FormatInt(o.train, 10),
		"seed", strconv.FormatUint(o.seed, 10),
		"trace", o.traceFile,
	}
	// Chaos keys appear only when the layer is armed, keeping no-chaos
	// trace headers byte-identical to earlier versions.
	if o.chaosSpec != "" {
		kv = append(kv,
			"chaos", o.chaosSpec,
			"chaos-seed", strconv.FormatUint(o.chaosSeed, 10))
	}
	// The workload key appears only when the autoscaler is actually
	// armed, so constant-workload runs stay byte-identical to fixed-n.
	if o.workloadArmed {
		kv = append(kv, "workload", o.workloadFile)
	}
	// Pool keys, likewise, appear only on heterogeneous runs so
	// zone-only trace headers stay byte-identical.
	if o.typesSpec != "" {
		kv = append(kv, "types", o.typesSpec)
	}
	if o.minVCPU > 0 {
		kv = append(kv, "min-vcpu", strconv.Itoa(o.minVCPU))
	}
	if o.minMem > 0 {
		kv = append(kv, "min-mem", strconv.FormatFloat(o.minMem, 'g', -1, 64))
	}
	return telemetry.SortedMeta(kv...)
}

func manifestConfig(o options) map[string]string {
	cfg := traceMeta(o)
	delete(cfg, "command")
	cfg["jobs"] = strconv.Itoa(o.jobs)
	return cfg
}

func run(o options) error {
	var spec strategy.ServiceSpec
	switch o.service {
	case "lock":
		spec = experiments.LockSpec()
	case "storage":
		spec = experiments.StorageSpec()
	default:
		return fmt.Errorf("unknown service %q", o.service)
	}
	extraTypes, err := market.ParseTypes(o.typesSpec)
	if err != nil {
		return err
	}
	spec.MinVCPU = o.minVCPU
	spec.MinMemGiB = o.minMem

	// Strategies may cache model state, so each replay builds its own.
	mkStrat := func() (strategy.Strategy, error) {
		switch o.stratName {
		case "jupiter":
			return core.New(), nil
		case "baseline":
			return strategy.OnDemand{}, nil
		case "extra":
			return strategy.Extra{ExtraNodes: o.extraNodes, Portion: o.extraPortion}, nil
		default:
			return nil, fmt.Errorf("unknown strategy %q", o.stratName)
		}
	}
	if _, err := mkStrat(); err != nil {
		return err
	}

	intervals, err := parseIntervals(o.intervalSpec)
	if err != nil {
		return err
	}
	if len(intervals) > 1 && o.seriesOut != "" {
		return fmt.Errorf("-series needs a single -interval")
	}

	mode := trace.Strict
	if o.lenient {
		mode = trace.Lenient
	}
	var set *trace.Set
	var readReport *trace.ReadReport
	if o.traceFile != "" {
		f, ferr := os.Open(o.traceFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		set, readReport, err = colbin.ReadAny(f, spec.Type, extraTypes, 0, (o.train+o.weeks)*experiments.Week, mode)
		// A colbin trace is self-describing; the CSV reader already
		// filters on the base type, so this only rejects a mismatched
		// colbin file.
		if err == nil && set.Type != spec.Type {
			err = fmt.Errorf("trace file %s holds %s pools, service needs %s", o.traceFile, set.Type, spec.Type)
		}
	} else {
		env := experiments.Env{Seed: o.seed, TrainWeeks: o.train, ReplayWeeks: o.weeks, Types: extraTypes}
		set, err = env.Traces(spec.Type)
	}
	if err != nil {
		return err
	}

	var wl *workload.Trace
	var wlReport *trace.ReadReport
	if o.workloadFile != "" {
		f, werr := os.Open(o.workloadFile)
		if werr != nil {
			return werr
		}
		wl, wlReport, err = workload.ReadCSVMode(f, o.train*experiments.Week, (o.train+o.weeks)*experiments.Week, mode)
		f.Close()
		if err != nil {
			return err
		}
		// Mirror the replay kernel's arming rule so the trace metadata
		// reflects whether the run can differ from fixed-n at all.
		plan, perr := workload.DefaultAutoscaler(spec.BaseNodes).Plan(wl)
		if perr != nil {
			return perr
		}
		o.workloadArmed = !plan.Constant() || plan.TargetAt(plan.Start) != spec.BaseNodes
	}

	var chaosSc *chaos.Scenario
	if o.chaosSpec != "" {
		sc, cerr := chaos.Load(o.chaosSpec)
		if cerr != nil {
			return cerr
		}
		chaosSc = &sc
		fmt.Fprintf(os.Stderr, "replay: chaos scenario %q armed (%d injectors)\n", sc.Name, len(sc.Injectors))
	}

	sink, err := newTelemetrySink(o)
	if err != nil {
		return err
	}
	// Both are silent no-ops for a clean or absent report.
	fmt.Fprint(os.Stderr, readReport.Summary("replay", "trace"), wlReport.Summary("replay", "workload"))
	telemetry.RecordQuarantinedRows(sink.reg, o.traceFile, readReport)
	telemetry.RecordQuarantinedRows(sink.reg, o.workloadFile, wlReport)

	// Decision provenance: one recorder/ledger pair per sweep cell,
	// indexed by interval so the outputs keep input order under -j.
	var recs []*provenance.Recorder
	var leds []*provenance.Ledger
	if o.spansOut != "" || o.attribOut != "" {
		recs = make([]*provenance.Recorder, len(intervals))
		leds = make([]*provenance.Ledger, len(intervals))
		for i := range intervals {
			recs[i] = provenance.NewRecorder(o.spansSample)
			leds[i] = provenance.NewLedger()
			leds[i].WatchStages(recs[i])
		}
	}

	// One model provider shared by every cell of the interval sweep:
	// intervals whose retrain boundaries coincide train each window once.
	models := modelcache.New()
	replayOne := func(cell int, hours int64) (*replay.Result, error) {
		strat, err := mkStrat()
		if err != nil {
			return nil, err
		}
		var obs []engine.Observer
		var col *telemetry.Collector
		if sink.active() {
			obs, col = sink.observers(o, hours)
		}
		var spans *provenance.Recorder
		if recs != nil {
			spans = recs[cell]
			obs = append(obs, leds[cell])
		}
		start := o.train * experiments.Week
		res, err := replay.Run(replay.Config{
			Traces:                 set,
			Start:                  start,
			Spec:                   spec,
			Strategy:               strat,
			IntervalMinutes:        hours * 60,
			Seed:                   o.seed,
			InjectHardwareFailures: true,
			Models:                 models,
			Observers:              obs,
			Chaos:                  chaosSc,
			ChaosSeed:              o.chaosSeed,
			Spans:                  spans,
			Workload:               wl,
		})
		if res != nil {
			if col != nil {
				col.CloseRun(start + res.TotalMinutes)
			}
			if leds != nil {
				leds[cell].CloseRun(start + res.TotalMinutes)
			}
		}
		return res, err
	}

	runErr := func() error {
		if len(intervals) == 1 {
			res, err := replayOne(0, intervals[0])
			if err != nil {
				return err
			}
			if err := report(res, spec, o.service, intervals[0], o.seriesOut); err != nil {
				return err
			}
			if o.modelStats {
				fmt.Println(models.Stats())
			}
			return nil
		}

		// Interval sweep: independent cells on a worker pool, results
		// kept in input order.
		jobs := o.jobs
		if jobs < 1 {
			jobs = 1
		}
		if jobs > len(intervals) {
			jobs = len(intervals)
		}
		results := make([]*replay.Result, len(intervals))
		errs := make([]error, len(intervals))
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i], errs[i] = replayOne(i, intervals[i])
				}
			}()
		}
		for i := range intervals {
			work <- i
		}
		close(work)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		fmt.Printf("strategy %s, service %s (%d nodes base, m=%d)\n", o.stratName, o.service, spec.BaseNodes, spec.DataShards)
		fmt.Printf("%8s  %14s  %12s  %10s  %9s  %8s\n", "interval", "cost", "availability", "decisions", "out-of-bid", "max-grp")
		for i, res := range results {
			fmt.Printf("%7dh  %14s  %12.6f  %10d  %9d  %8d\n",
				intervals[i], res.Cost, res.Availability, res.Decisions, res.OutOfBid, res.MaxGroupSize)
		}
		if o.modelStats {
			fmt.Println(models.Stats())
		}
		return nil
	}()

	if runErr == nil && recs != nil {
		if err := writeProvenance(o, intervals, recs, leds); err != nil {
			runErr = err
		}
	}
	if err := sink.close(o); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// writeProvenance emits the spans JSONL and/or the attribution JSON
// after a successful run, cells in input-interval order.
func writeProvenance(o options, intervals []int64, recs []*provenance.Recorder, leds []*provenance.Ledger) error {
	if o.spansOut != "" {
		var spans []provenance.Span
		for i, rec := range recs {
			rec.Stamp(provenance.Stamp{
				Strategy: o.stratName,
				Service:  o.service,
				Interval: fmt.Sprintf("%dh", intervals[i]),
				Seed:     o.seed,
			})
			spans = append(spans, rec.Spans()...)
		}
		meta := traceMeta(o)
		meta["spans-sample"] = strconv.Itoa(o.spansSample)
		f, err := os.Create(o.spansOut)
		if err != nil {
			return err
		}
		if err := provenance.WriteSpans(f, meta, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote decision spans to", o.spansOut)
	}
	if o.attribOut != "" {
		runs := make([]provenance.DocCell, len(leds))
		for i, led := range leds {
			runs[i] = provenance.DocCell{
				Strategy:    o.stratName,
				Service:     o.service,
				Interval:    fmt.Sprintf("%dh", intervals[i]),
				Seed:        o.seed,
				Attribution: led.Attribution(),
			}
		}
		b, err := json.MarshalIndent(provenance.NewDoc(runs), "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if o.attribOut == "-" {
			_, err := os.Stdout.Write(b)
			return err
		}
		if err := os.WriteFile(o.attribOut, b, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote attribution to", o.attribOut)
	}
	return nil
}

func report(res *replay.Result, spec strategy.ServiceSpec, service string, interval int64, seriesOut string) error {
	fmt.Printf("strategy:         %s\n", res.Strategy)
	fmt.Printf("service:          %s (%d nodes base, m=%d, quorum %d-of-n)\n",
		service, spec.BaseNodes, spec.DataShards, spec.QuorumSize(spec.BaseNodes))
	fmt.Printf("interval:         %dh\n", interval)
	fmt.Printf("cost:             %s\n", res.Cost)
	fmt.Printf("availability:     %.6f (%d of %d minutes down)\n", res.Availability, res.DownMinutes, res.TotalMinutes)
	fmt.Printf("target avail:     %.7f\n", spec.TargetAvailability())
	fmt.Printf("decisions:        %d\n", res.Decisions)
	fmt.Printf("spot launches:    %d (out-of-bid terminations %d, failed requests %d)\n",
		res.SpotLaunch, res.OutOfBid, res.FailedRequests)
	fmt.Printf("on-demand:        %d launches\n", res.OnDemandLaunch)
	fmt.Printf("group size:       mean %.2f, max %d\n", res.MeanGroupSize, res.MaxGroupSize)
	if seriesOut != "" {
		var w io.Writer = os.Stdout
		if seriesOut != "-" {
			f, err := os.Create(seriesOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		fmt.Fprintln(w, "start_minute,interval_minutes,group_size,down_minutes")
		for _, row := range res.Series {
			fmt.Fprintf(w, "%d,%d,%d,%d\n", row.StartMinute, row.IntervalMinutes, row.GroupSize, row.DownMinutes)
		}
	}
	return nil
}
