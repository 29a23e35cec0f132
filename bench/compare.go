package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is BENCHMARK.json as far as the harness reads it: the names and
// units it must emit, and each end-to-end metric's direction and bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (reports written by -o; run from the repository root)")
		return 2
	}
	return compare("BENCHMARK.json", args[0], args[1], os.Stdout)
}

// compare prints, per workload and end-to-end metric, both reports'
// values, B's ratio to A, the bound and a verdict. It returns 1 when B is
// worse than A beyond a bound, fails a larger share of its ops, or — at
// equal seeds — simulated something else.
func compare(specPath, pathA, pathB string, w io.Writer) int {
	var sp spec
	var a, b report
	for path, v := range map[string]any{specPath: &sp, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	worse := 0
	row := func(workload, metric, va, vb, ratio, bound, verdict string) {
		fmt.Fprintf(w, "%-24s %-14s %14s %14s %8s %6s  %s\n", workload, metric, va, vb, ratio, bound, verdict)
		if verdict == "worse" {
			worse++
		}
	}
	num := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	row("workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		for _, m := range sp.EndToEnd {
			va, oka := ra.Metrics[m.Name]
			vb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			// change is how much worse B is than A, as a share of A.
			change := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
			case change < -m.Bound:
				verdict = "better"
			}
			row(n, m.Name, num(va.Value), num(vb.Value), fmt.Sprintf("%.4f", vb.Value/va.Value), num(m.Bound), verdict)
		}
		verdict := "ok"
		if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
			verdict = "worse"
		}
		row(n, "failed_frac", fmt.Sprintf("%d/%d", ra.Failed, ra.Attempted), fmt.Sprintf("%d/%d", rb.Failed, rb.Attempted), "", "0", verdict)
		if a.Seed != b.Seed {
			continue
		}
		// At equal seeds the simulation must repeat exactly: the result
		// digest and every count the program makes of itself.
		if a.Digests[n] != b.Digests[n] {
			row(n, "digest", a.Digests[n].Digest[:min(12, len(a.Digests[n].Digest))], b.Digests[n].Digest[:min(12, len(b.Digests[n].Digest))], "", "0", "worse")
		}
		for _, m := range sp.PerLayer {
			va, oka := ra.Metrics[m.Name]
			vb, okb := rb.Metrics[m.Name]
			if oka && okb && exactCount(m.Name) && va.Value != vb.Value {
				row(n, m.Name, num(va.Value), num(vb.Value), "", "0", "worse")
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse\n", worse)
		return 1
	}
	return 0
}

// exactCount reports whether a per-layer metric is a count the program
// makes of its own deterministic simulation.
func exactCount(name string) bool {
	return strings.HasPrefix(name, "engine.events") || name == "modelcache.scratch_trains" || name == "modelcache.incr_trains"
}
