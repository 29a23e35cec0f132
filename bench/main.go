// Command bench is the repository's benchmark: five named replay
// workloads driven through the public functions of internal/replay,
// internal/experiments and the layer packages, timed from outside. See
// README.md beside this file and BENCHMARK.json at the repository root.
//
//	go run ./bench [--workload a,b] [--seed N] [--seconds S] [--trace 0|1|both] [-o report.json]
//	go run ./bench compare A.json B.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are recorded in expected.json.
const defaultSeed = 2014

// expectation is the recorded outcome of a workload's first rep.
type expectation struct {
	Digest  string  `json:"digest"`
	CostUSD float64 `json:"cost_usd"`
	DownMin int64   `json:"down_min"`
}

//go:embed expected.json
var expectedJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run prints as its JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -o writes and compare reads.
type report struct {
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Jobs      int                    `json:"jobs"`
	GoVersion string                 `json:"go_version"`
	NumCPU    int                    `json:"num_cpu"`
	Digests   map[string]expectation `json:"digests"`
	Workloads map[string]result      `json:"workloads"`
}

type options struct {
	seed uint64
	// box is the time box of a timed pass; at least minReps reps run
	// whatever it is.
	box     time.Duration
	minReps int
	// setups is how many times the untraced pass sets the workload up;
	// setup_s is their median. A workload whose set-ups are done within
	// setupBudget is set up again, to at most three times as often: a
	// half-second set-up needs more than three samples for a steady
	// median.
	setups      int
	setupBudget time.Duration
	// jobs is the Env.Jobs width of the sweep workload.
	jobs int
	// smoke shrinks every workload to smokeSize (bench_test.go).
	smoke bool
	// probePasses is how many passes a direct probe takes a median over.
	probePasses int
	// traceDir is where the traced pass writes its spans; empty keeps
	// them in memory only.
	traceDir string
}

func (o options) sizeOf(w workloadDef) size {
	if o.smoke {
		return smokeSize
	}
	return w.size
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Uint64("seed", defaultSeed, "seed of every generated input: market, replay, chaos and request-rate trace")
	seconds := fs.Float64("seconds", 20, "time box of each workload's measured part")
	traceMode := fs.String("trace", "both", "0: end-to-end metrics only; 1: traced pass, per-layer metrics only; both")
	out := fs.String("o", "", "write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceMode != "0" && *traceMode != "1" && *traceMode != "both") || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			selected = append(selected, w)
		}
	}
	var expected map[string]expectation
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fmt.Fprintf(os.Stderr, "bench: expected.json: %v\n", err)
		return 2
	}
	opt := options{
		seed: *seed, box: time.Duration(*seconds * float64(time.Second)),
		minReps: 3, setups: 3, setupBudget: 3 * time.Second, jobs: min(runtime.NumCPU(), 4), probePasses: 5, traceDir: "bench/out",
	}
	rep := report{
		Seed: opt.seed, Seconds: *seconds, Jobs: opt.jobs,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Digests: map[string]expectation{}, Workloads: map[string]result{},
	}
	code := 0
	for _, w := range selected {
		var want *expectation
		if e, ok := expected[w.name]; ok && opt.seed == defaultSeed {
			want = &e
		}
		res, got, err := runWorkload(w, opt, *traceMode, want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		if res.Metrics == nil {
			continue
		}
		line, err := json.Marshal(res)
		if err != nil { // a metric that is not a number
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		rep.Workloads[w.name], rep.Digests[w.name] = res, got
		printMetrics(w.name, res)
		fmt.Println(string(line))
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload's untraced and/or traced pass. A result
// without metrics means no rep completed; an error means the run must
// exit non-zero.
func runWorkload(w workloadDef, opt options, traceMode string, want *expectation) (result, expectation, error) {
	g := &gate{}
	metrics := map[string]metric{}
	if traceMode != "1" {
		m, err := endToEnd(w, opt, g)
		if err != nil {
			return result{}, expectation{}, err
		}
		for k, v := range m {
			metrics[k] = v
		}
	}
	if traceMode != "0" {
		m, err := perLayer(w, opt, g)
		if err != nil {
			return result{}, expectation{}, err
		}
		for k, v := range m {
			metrics[k] = v
		}
	}
	g.expect(want)
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	got := expectation{Digest: g.digest, CostUSD: g.costUSD, DownMin: g.downMin}
	if g.failed > 0 {
		return res, got, fmt.Errorf("%d of %d ops failed: %w", g.failed, g.attempted, g.firstErr)
	}
	return res, got, nil
}

// printMetrics lists every metric by name and unit on standard error;
// standard output carries only the JSON result lines.
func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "== %s: %d ops attempted, %d failed\n", workload, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
