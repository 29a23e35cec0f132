package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// familyMass adds up one metric family of a registry snapshot over
// every series — a counter's values, a histogram's sums — the family's
// mass however many label combinations it split into.
func familyMass(t *testing.T, snap telemetry.Snapshot, family string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		var sum float64
		for _, s := range f.Series {
			if f.Kind == "histogram" {
				sum += s.Sum
			} else {
				sum += s.Value
			}
		}
		return sum
	}
	t.Fatalf("metric family %q absent from the snapshot", family)
	return 0
}

// TestLedgerReconciliation is the attribution ledger's accounting
// invariant, checked against every shipped chaos scenario on two
// independent markets: the (pool, cause) cost cells sum bit-exactly to
// the run's billed total (replay.Result.Cost AND the Collector's
// billing counter mass), and the attributed downtime minutes sum to
// the run's downtime (replay.Result.DownMinutes AND the Collector's
// downtime histogram mass). Every billed cent and every down minute
// lands in exactly one cell — nothing double-counted, nothing dropped.
//
// The table is the one testdata/ledger_attribution.json records for the
// cell, taken when quarantine evidence still came from decision spans
// recorded at every decision.
func TestLedgerReconciliation(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "ledger_attribution.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]provenance.Attribution
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	models := modelcache.New() // scenarios and seeds salt the trace fingerprint, so sharing is safe
	for _, name := range chaos.BuiltinNames() {
		for _, seed := range []uint64{2014, 2015} {
			key := fmt.Sprintf("%s/seed-%d", name, seed)
			t.Run(key, func(t *testing.T) {
				sc := mustBuiltin(t, name)
				e := QuickEnv()
				e.Seed = seed
				e.Chaos = &sc
				e.Models = models
				// Arm a flat workload so the flash-crowd scenarios drive
				// gradual resizes and the ledger's startup/resize causes
				// are exercised under every scenario.
				e.Workload = cruiseWorkload(t, e)

				// The one sink, armed as -manifest and -events-out arm it —
				// the event trace and a ledger, opened by the cell runner —
				// beside a Collector the cell's Observe hook adds.
				var events bytes.Buffer
				w, err := telemetry.NewTraceWriter(&events, nil)
				if err != nil {
					t.Fatal(err)
				}
				sink := &Sink{flags: Flags{Manifest: "-"}, writer: w}
				e.sink = sink
				reg := telemetry.NewRegistry()
				e.Observe = func(_ strategy.ServiceSpec, name string, _ int64) []engine.Observer {
					return []engine.Observer{telemetry.NewCollector(reg, telemetry.Labels{Service: "lock", Strategy: name, Interval: "3h"})}
				}

				set, err := e.Traces(market.M1Small)
				if err != nil {
					t.Fatal(err)
				}
				c := e.cell(set, LockSpec(), func() strategy.Strategy { return core.New() }, 3)
				c.scenario = name
				results, err := e.runGrid([]cell{c})
				if err != nil {
					t.Fatal(err)
				}
				res := results[0]
				if err := sink.writer.Close(); err != nil {
					t.Fatal(err)
				}
				a, _ := sink.attribution(res)

				var cellCost, cellDown int64
				for _, c := range a.Cells {
					cellCost += c.CostMicroUSD
					cellDown += c.DownMinutes
				}
				if cellCost != a.TotalCostMicroUSD || cellDown != a.TotalDownMinutes {
					t.Fatalf("cells sum to %d µ$ / %d min, totals say %d / %d",
						cellCost, cellDown, a.TotalCostMicroUSD, a.TotalDownMinutes)
				}
				if a.TotalCostMicroUSD != int64(res.Cost) {
					t.Errorf("attributed cost %d µ$ != run bill %d µ$", a.TotalCostMicroUSD, int64(res.Cost))
				}
				if a.TotalDownMinutes != res.DownMinutes {
					t.Errorf("attributed downtime %d min != run downtime %d min", a.TotalDownMinutes, res.DownMinutes)
				}

				snap := reg.Snapshot()
				if billed := familyMass(t, snap, "jupiter_billing_microusd_total"); int64(billed) != a.TotalCostMicroUSD {
					t.Errorf("billing counter mass %v µ$ != attributed cost %d µ$", billed, a.TotalCostMicroUSD)
				}
				if down := familyMass(t, snap, "jupiter_downtime_minutes"); int64(down) != a.TotalDownMinutes {
					t.Errorf("downtime histogram mass %v min != attributed downtime %d min", down, a.TotalDownMinutes)
				}

				if want, ok := recorded[key]; !ok || !reflect.DeepEqual(a, want) {
					t.Errorf("attribution\n%+v\nwant the recorded\n%+v", a, want)
				}
			})
		}
	}
}

// runManifest runs fn on an Env opened from f with -manifest set to a
// temp file, closes the sink, and reads the manifest back.
func runManifest(t *testing.T, f Flags, fn func(Env) error) *Manifest {
	t.Helper()
	f.Manifest = filepath.Join(t.TempDir(), "manifest.json")
	e, sink, err := f.Open("test", LockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(fn(e)); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(f.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	m, err := ReadManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAttributionIgnoresSpanSampling: the ledger reads the degradation
// stage from the event stream, so a cell's result and attribution are
// the same whether spans are recorded at every decision, every 3rd,
// every 16th, or not at all. The cell is one whose downtime has no
// event evidence but a degraded stage: quarantine, 300 minutes, as
// recorded when spans at every decision were the stage's only source.
func TestAttributionIgnoresSpanSampling(t *testing.T) {
	run := func(sample int) Record {
		f := Flags{Train: 6, Weeks: 2, Jobs: 1, SpansSample: sample}
		m := runManifest(t, f, func(e Env) error {
			cfg := DefaultTournamentConfig()
			cfg.Specs, cfg.Scenarios, cfg.Seeds = []string{"jupiter-adaptive"}, []string{"flaky-market"}, []uint64{2015}
			_, err := e.Tournament(cfg)
			return err
		})
		if len(m.Runs) != 1 {
			t.Fatalf("manifest holds %d records, want 1", len(m.Runs))
		}
		return m.Runs[0]
	}
	want := run(0)
	if want.Spans != nil {
		t.Fatalf("-spans-sample 0 recorded %d spans", len(want.Spans))
	}
	quarantine := false
	for _, c := range want.Attribution.Cells {
		quarantine = quarantine || (c.Cause == provenance.CauseQuarantine && c.DownMinutes == 300)
	}
	if !quarantine {
		t.Fatalf("no 300-minute quarantine cell: %+v", want.Attribution.Cells)
	}
	for _, sample := range []int{1, 3, 16} {
		got := run(sample)
		if len(got.Spans) == 0 {
			t.Errorf("-spans-sample %d recorded no spans", sample)
		}
		got.Spans = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-spans-sample %d: record\n%+v\nwithout spans\n%+v", sample, got, want)
		}
	}
}

// TestManifestRecordsEveryReplay: "-run all -manifest" records every
// replay the run makes, one record each, never merged under a shared
// label, and every record's attribution totals are its result's cost
// and downtime.
func TestManifestRecordsEveryReplay(t *testing.T) {
	var replays atomic.Int64
	m := runManifest(t, Flags{Train: 6, Weeks: 1, Jobs: 2}, func(e Env) error {
		e.Observe = func(strategy.ServiceSpec, string, int64) []engine.Observer {
			replays.Add(1)
			return nil
		}
		sel, err := Select("all", false)
		if err != nil {
			return err
		}
		return e.Print(io.Discard, sel, "")
	})
	if int64(len(m.Runs)) != replays.Load() {
		t.Errorf("manifest holds %d records for %d replays", len(m.Runs), replays.Load())
	}
	labels := map[provenance.Stamp]int{}
	for _, r := range m.Runs {
		labels[r.Stamp]++
		if r.Attribution.TotalCostMicroUSD != int64(r.Result.Cost) || r.Attribution.TotalDownMinutes != r.Result.DownMinutes {
			t.Errorf("%+v: attribution %d µ$ / %d min, result %d µ$ / %d min", r.Stamp,
				r.Attribution.TotalCostMicroUSD, r.Attribution.TotalDownMinutes, int64(r.Result.Cost), r.Result.DownMinutes)
		}
	}
	if len(labels) == len(m.Runs) {
		t.Error("no two records share a label: the check for unmerged records is vacuous")
	}
}

// TestTournamentProvenanceJIdentity pins the determinism contract for
// the observability outputs: a tournament run with -manifest and
// -spans-sample, opened and closed through the one sink as the command
// does, emits byte-identical leaderboard JSON and manifest records,
// their decision spans included, at any worker-pool width.
func TestTournamentProvenanceJIdentity(t *testing.T) {
	run := func(jobs int) (leaderboard, records []byte) {
		f := Flags{Train: 6, Weeks: 1, Jobs: jobs, SpansSample: 4}
		m := runManifest(t, f, func(e Env) error {
			cfg := DefaultTournamentConfig()
			cfg.Specs, cfg.Scenarios, cfg.Seeds = []string{"jupiter", "baseline"}, []string{"calm", "reclaim-storm"}, []uint64{2014}
			res, err := e.Tournament(cfg)
			if err == nil {
				leaderboard, err = res.JSON()
			}
			return err
		})
		if len(m.Runs) != 4 {
			t.Errorf("manifest holds %d records, want one per grid cell, 4", len(m.Runs))
		}
		// Sanity: the Jupiter cells of both scenarios carry spans, the
		// baseline's none.
		for _, r := range m.Runs {
			if (r.Strategy == "Jupiter") != (len(r.Spans) > 0) {
				t.Errorf("%+v: %d spans", r.Stamp, len(r.Spans))
			}
		}
		var err error
		if records, err = json.Marshal(m.Runs); err != nil {
			t.Fatal(err)
		}
		return leaderboard, records
	}
	j1, r1 := run(1)
	j8, r8 := run(8)
	if !bytes.Equal(j1, j8) {
		t.Errorf("leaderboard JSON differs between -j 1 and -j 8: %d vs %d bytes", len(j1), len(j8))
	}
	if !bytes.Equal(r1, r8) {
		t.Errorf("manifest records differ between -j 1 and -j 8:\n%s\nvs\n%s", r1, r8)
	}
	if !bytes.Contains(j1, []byte(`"worst_cause"`)) || !bytes.Contains(r1, []byte(`"scenario":"reclaim-storm"`)) {
		t.Error("leaderboard cites no worst cause, or the records carry no scenario")
	}
}
