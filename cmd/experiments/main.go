// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic market. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	experiments [-run all|table1|fig1|fig4|fig5|fig6|fig7|fig8|fig9|headline|example3] [-seed N] [-weeks N] [-j N] [-model-stats]
//	            [-types a,b,c] [-min-vcpu N] [-min-mem G]
//	            [-trace file]
//	            [-chaos scenario] [-chaos-seed N]
//	            [-events-out file.jsonl] [-manifest file.json] [-debug-addr host:port]
//	            [-spans-out file.jsonl] [-spans-sample N] [-attrib-out file.json]
//	experiments tournament [-strategies specs | -roster file] [-scenarios names]
//	            [-seeds a,b,c] [-weeks N] [-train N] [-interval H] [-epsilon F] [-j N]
//	            [-autoscale] [-json file] [-manifest file] [-list]
//	            [-spans file.jsonl] [-spans-sample N] [-attrib file.json]
//
// The tournament subcommand runs the strategy arena: every registered
// strategy of the roster replays under every chaos scenario and seed,
// and a leaderboard ranks them by availability bounds met, then mean
// cost (see DESIGN.md §2.7). With -autoscale, every cell and the
// clean baseline replay under a per-seed synthetic request-rate trace
// (diurnal sinusoid plus flash crowds), so strategies are judged while
// their fleets resize gradually (DESIGN.md §2.9).
//
// Telemetry: -events-out streams every replay cell's event history to
// one JSONL file (cells of a parallel sweep interleave; use -j 1 for a
// reproducible ordering), -manifest writes an end-of-run summary
// (config, seed, wall time, metric snapshot; "-" = stdout), and
// -debug-addr serves live /metrics and /debug/pprof while the
// experiments run — the per-cell series are kept apart by
// service/strategy/interval labels.
//
// Provenance: -spans-out records every replay cell's decision spans
// (why each bid was chosen; inspect with "analyze explain"), and
// -attrib-out writes the per-cell cost/downtime attribution ledger
// (render with "analyze attribute"). See DESIGN.md §2.8.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tournament" {
		if err := runTournament(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: tournament:", err)
			os.Exit(1)
		}
		return
	}
	runFlag := flag.String("run", "all", "experiment to run: all, table1, fig1, fig4, fig5, fig6, fig7, fig8, fig9, headline, example3, ablation, adaptive, refine, weighted")
	seed := flag.Uint64("seed", 2014, "master seed for trace generation and replay")
	weeks := flag.Int64("weeks", 11, "replay length in weeks (paper: 11)")
	train := flag.Int64("train", 13, "training prefix in weeks (paper: ~13)")
	csvOut := flag.String("csv", "", "also write sweep rows (figs 6-9) as CSV to this file")
	jobs := flag.Int("j", runtime.NumCPU(), "worker-pool width for sweep cells (1 = sequential; results are identical either way)")
	modelStats := flag.Bool("model-stats", false, "share one price-model cache across all experiments and print its hit/train counters at the end")
	eventsOut := flag.String("events-out", "", "write every replay cell's event trace as JSONL to this file ('-' = stdout)")
	spansOut := flag.String("spans-out", "", "write every replay cell's decision-provenance spans as JSONL to this file (see cmd/analyze explain)")
	spansSample := flag.Int("spans-sample", 1, "with -spans-out, trace every Nth decision per cell (1 = all)")
	attribOut := flag.String("attrib-out", "", "write the per-cell cost/downtime attribution as JSON to this file ('-' = stdout)")
	manifestOut := flag.String("manifest", "", "write an end-of-run summary manifest (JSON) to this file ('-' = stdout)")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	chaosSpec := flag.String("chaos", "", "arm every replay cell with a fault-injection scenario: a builtin name or a JSON file")
	chaosSeed := flag.Uint64("chaos-seed", 0, "override the chaos scenario's seed (0 = use the scenario's own)")
	traceFile := flag.String("trace", "", "replay over this trace file instead of the synthetic market; format auto-detected (colbin binary, JSON, or CSV — CSV rows are filtered against the lock service's base type). Experiments whose spec needs a different base type fail with a clear error")
	typesSpec := flag.String("types", "", "comma-separated extra instance types: every sweep bids across (zone, type) pools instead of zones only")
	minVCPU := flag.Int("min-vcpu", 0, "minimum vCPUs an instance type must offer to host the services (0 = unconstrained)")
	minMem := flag.Float64("min-mem", 0, "minimum memory in GiB an instance type must offer (0 = unconstrained)")
	flag.Parse()

	start := time.Now()
	extraTypes, err := market.ParseTypes(*typesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	env := experiments.Env{
		Seed: *seed, TrainWeeks: *train, ReplayWeeks: *weeks, Jobs: *jobs,
		Types: extraTypes, MinVCPU: *minVCPU, MinMemGiB: *minMem,
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		set, _, err := colbin.ReadAny(f, experiments.LockSpec().Type, extraTypes,
			0, (*train+*weeks)*experiments.Week, trace.Strict)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		env.TraceSet = set
	}
	if *chaosSpec != "" {
		sc, err := chaos.Load(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		env.Chaos = &sc
		env.ChaosSeed = *chaosSeed
		fmt.Fprintf(os.Stderr, "experiments: chaos scenario %q armed (%d injectors)\n", sc.Name, len(sc.Injectors))
	}
	if *modelStats {
		env.Models = modelcache.New()
	}

	var reg *telemetry.Registry
	var writer *telemetry.TraceWriter
	var debug *telemetry.DebugServer
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *manifestOut != "" || *debugAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *eventsOut != "" {
		var w io.Writer = os.Stdout
		if *eventsOut != "-" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				fail(err)
			}
			w = f
		}
		kv := []string{
			"command", "experiments",
			"run", *runFlag,
			"seed", strconv.FormatUint(*seed, 10),
			"weeks", strconv.FormatInt(*weeks, 10),
			"train", strconv.FormatInt(*train, 10),
		}
		if *chaosSpec != "" {
			kv = append(kv,
				"chaos", *chaosSpec,
				"chaos-seed", strconv.FormatUint(*chaosSeed, 10))
		}
		// Pool keys appear only on heterogeneous runs, keeping zone-only
		// trace headers byte-identical.
		if *typesSpec != "" {
			kv = append(kv, "types", *typesSpec)
		}
		if *minVCPU > 0 {
			kv = append(kv, "min-vcpu", strconv.Itoa(*minVCPU))
		}
		if *minMem > 0 {
			kv = append(kv, "min-mem", strconv.FormatFloat(*minMem, 'g', -1, 64))
		}
		tw, err := telemetry.NewTraceWriter(w, telemetry.SortedMeta(kv...))
		if err != nil {
			fail(err)
		}
		writer = tw
	}
	if *debugAddr != "" {
		d, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		debug = d
		fmt.Fprintf(os.Stderr, "experiments: serving /metrics and /debug/pprof on http://%s\n", d.Addr())
	}
	var sink *provSink
	if *spansOut != "" || *attribOut != "" {
		sink = newProvSink(*spansSample, *seed)
		env.Spans = sink.recorder
	}
	if reg != nil || writer != nil || sink != nil {
		// One collector per replay cell: the collector keeps per-run
		// state, while the registry and trace writer are shared sinks.
		env.Observe = func(spec strategy.ServiceSpec, strategyName string, intervalHours int64) []engine.Observer {
			var obs []engine.Observer
			if reg != nil {
				obs = append(obs, telemetry.NewCollector(reg, telemetry.Labels{
					Service:  serviceName(spec),
					Strategy: strategyName,
					Interval: fmt.Sprintf("%dh", intervalHours),
				}))
			}
			if writer != nil {
				obs = append(obs, writer)
			}
			if sink != nil {
				obs = append(obs, sink.observe(spec, strategyName, intervalHours))
			}
			return obs
		}
	}

	err = run(env, *runFlag, *csvOut)
	if writer != nil {
		if werr := writer.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	if sink != nil && err == nil {
		if *spansOut != "" {
			f, serr := os.Create(*spansOut)
			if serr == nil {
				kv := []string{
					"command", "experiments",
					"run", *runFlag,
					"seed", strconv.FormatUint(*seed, 10),
					"spans-sample", strconv.Itoa(*spansSample),
				}
				serr = provenance.WriteSpans(f, telemetry.SortedMeta(kv...), sink.spans())
				if cerr := f.Close(); serr == nil {
					serr = cerr
				}
			}
			if serr != nil {
				err = serr
			} else {
				fmt.Println("wrote decision spans to", *spansOut)
			}
		}
		if *attribOut != "" && err == nil {
			err = writeAttribution(*attribOut, sink.attribution())
		}
	}
	if *manifestOut != "" {
		m := telemetry.NewManifest("experiments", *seed, map[string]string{
			"run":   *runFlag,
			"weeks": strconv.FormatInt(*weeks, 10),
			"train": strconv.FormatInt(*train, 10),
			"jobs":  strconv.Itoa(*jobs),
		}, start, reg)
		if merr := m.WriteFile(*manifestOut); merr != nil && err == nil {
			err = merr
		}
	}
	if debug != nil {
		debug.Close()
	}
	if err != nil {
		fail(err)
	}
	if env.Models != nil {
		fmt.Println(env.Models.Stats())
	}
}

// serviceName maps a spec back to the experiment's service label.
func serviceName(spec strategy.ServiceSpec) string {
	if spec.DataShards > 1 {
		return "storage"
	}
	return "lock"
}

func run(env experiments.Env, which, csvOut string) error {
	var lockRows, storageRows []experiments.SweepRow
	needLock := which == "all" || which == "fig6" || which == "fig7" || which == "headline"
	needStorage := which == "all" || which == "fig8" || which == "fig9" || which == "headline"

	if which == "all" || which == "table1" {
		fmt.Println("== Table 1 ==")
		fmt.Println(experiments.RenderTable1())
	}
	if which == "all" || which == "fig1" {
		out, err := env.RenderFig1()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 1 ==")
		fmt.Println(out)
	}
	if which == "all" || which == "fig4" {
		out, err := env.RenderFig4()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 4 ==")
		fmt.Println(out)
	}
	if which == "all" || which == "fig5" {
		out, err := env.RenderFig5()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 5 ==")
		fmt.Println(out)
	}
	if needLock {
		rows, err := env.Fig6and7()
		if err != nil {
			return err
		}
		lockRows = rows
		if which != "headline" {
			fmt.Println("== Figures 6 and 7 ==")
			fmt.Println(experiments.RenderSweep(rows, "lock"))
		}
	}
	if needStorage {
		rows, err := env.Fig8and9()
		if err != nil {
			return err
		}
		storageRows = rows
		if which != "headline" {
			fmt.Println("== Figures 8 and 9 ==")
			fmt.Println(experiments.RenderSweep(rows, "storage"))
		}
	}
	if which == "all" || which == "headline" {
		var hs []experiments.Headline
		if lockRows != nil {
			h, err := experiments.HeadlineFrom(lockRows, "lock", experiments.LockSpec().TargetAvailability())
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		if storageRows != nil {
			h, err := experiments.HeadlineFrom(storageRows, "storage", experiments.StorageSpec().TargetAvailability())
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		fmt.Println("== Headline ==")
		fmt.Println(experiments.RenderHeadline(hs))
	}
	if which == "all" || which == "example3" {
		out, err := env.RenderExample3()
		if err != nil {
			return err
		}
		fmt.Println("== Section 3 worked example ==")
		fmt.Println(out)
	}
	if csvOut != "" && (lockRows != nil || storageRows != nil) {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteSweepCSV(f, append(append([]experiments.SweepRow{}, lockRows...), storageRows...)); err != nil {
			return err
		}
		fmt.Println("wrote sweep CSV to", csvOut)
	}
	if which == "all" || which == "ablation" {
		rows, err := env.AblationEstimators()
		if err != nil {
			return err
		}
		fmt.Println("== Ablation: failure estimator ==")
		fmt.Println(experiments.RenderAblation(rows))
	}
	if which == "all" || which == "adaptive" {
		rows, err := env.AblationAdaptiveInterval()
		if err != nil {
			return err
		}
		fmt.Println("== Extension: adaptive bidding interval ==")
		fmt.Println(experiments.RenderAdaptive(rows))
	}
	if which == "all" || which == "refine" {
		rows, err := env.AblationRefinement()
		if err != nil {
			return err
		}
		fmt.Println("== Extension: heterogeneous-bid refinement ==")
		fmt.Println(experiments.RenderRefinement(rows))
	}
	if which == "all" || which == "weighted" {
		rep, err := env.WeightedVotingAnalysis()
		if err != nil {
			return err
		}
		fmt.Println("== Analysis: weighted voting (paper 4.1) ==")
		fmt.Println(experiments.RenderWeightedVoting(rep))
	}
	return nil
}
