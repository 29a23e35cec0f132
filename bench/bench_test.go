package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

// TestSmoke runs every workload end to end at a tiny scale — both passes,
// every probe at one pass — and holds the harness to BENCHMARK.json:
// the same workloads, and per workload exactly the metrics it names,
// with their units.
func TestSmoke(t *testing.T) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	units := map[string]string{}
	declare := func(n, unit string) {
		if !name.MatchString(n) {
			t.Errorf("metric name %q does not match %v", n, name)
		}
		if unit == "" {
			t.Errorf("metric %s has no unit", n)
		}
		if _, dup := units[n]; dup {
			t.Errorf("metric %s is declared twice", n)
		}
		units[n] = unit
	}
	for _, m := range sp.EndToEnd {
		declare(m.Name, m.Unit)
	}
	for _, m := range sp.PerLayer {
		declare(m.Name, m.Unit)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}

	opt := options{seed: defaultSeed, box: time.Nanosecond, minReps: 1, setups: 1, jobs: 2, smoke: true, probePasses: 1}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, sp.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, got, err := runWorkload(w, opt, "both", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || got.Digest == "" {
				t.Errorf("correct=%v attempted=%d failed=%d digest=%q", res.Correct, res.Attempted, res.Failed, got.Digest)
			}
			for n, m := range res.Metrics {
				if want, ok := units[n]; !ok {
					t.Errorf("emits %s, which BENCHMARK.json does not name", n)
				} else if m.Unit != want {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", n, m.Unit, want)
				}
			}
			for n := range units {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("does not emit %s", n)
				}
			}
		})
	}
}

func TestLayerOfSymbol(t *testing.T) {
	for symbol, want := range map[string]string{
		"repro/internal/smc.(*Model).Forecast":                                    "smc",
		"repro/internal/core.(*Jupiter).buildPoolSnapshots.func1":                 "core",
		"repro/internal/trace/colbin.Decode":                                      "colbin",
		"repro/internal/quorum.WeightedThresholdAvailability":                     "quorum",
		"slices.SortFunc[go.shape.[]repro/internal/core.poolBid,go.shape.struct]": "",
		"runtime.mallocgc":                     "go.runtime",
		"runtime/internal/syscall.Syscall6":    "go.runtime",
		"internal/runtime/atomic.(*Int64).Add": "go.runtime",
		"main.(*timedView).PriceHistory":       "",
		"":                                     "",
	} {
		if got := layerOf(packageOf(symbol)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", symbol, got, want)
		}
	}
}

// TestCompare pins the verdicts: a metric past its bound is worse and
// fails the comparison, one within it is ok, and at equal seeds a
// different digest fails it whatever the timings say.
func TestCompare(t *testing.T) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	first := sp.EndToEnd[0]
	mk := func(value float64, digest string) report {
		return report{
			Seed:    defaultSeed,
			Digests: map[string]expectation{"w": {Digest: digest}},
			Workloads: map[string]result{"w": {Correct: true, Attempted: 10, Metrics: map[string]metric{
				first.Name: {value, first.Unit},
			}}},
		}
	}
	worseBy := func(f float64) float64 {
		if first.Better == "higher" {
			return 100 * (1 - f)
		}
		return 100 * (1 + f)
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(r)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, "d"))
	for _, c := range []struct {
		name string
		b    report
		code int
		says string
	}{
		{"same", mk(100, "d"), 0, " ok"},
		{"within", mk(worseBy(first.Bound/2), "d"), 0, " ok"},
		{"worse", mk(worseBy(first.Bound*2), "d"), 1, " worse"},
		{"better", mk(worseBy(-first.Bound*2), "d"), 0, " better"},
		{"digest", mk(100, "e"), 1, "digest"},
	} {
		var out bytes.Buffer
		if code := compare(specPath, base, write(c.name+".json", c.b), &out); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		} else if !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.says, out.String())
		}
	}
}
