package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/modelcache"
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
func TestLedgerReconciliation(t *testing.T) {
	models := modelcache.New() // scenarios and seeds salt the trace fingerprint, so sharing is safe
	for _, name := range chaos.BuiltinNames() {
		for _, seed := range []uint64{2014, 2015} {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				sc := mustBuiltin(t, name)
				e := QuickEnv()
				e.Seed = seed
				e.Chaos = &sc
				e.Models = models
				// Arm a flat workload so the flash-crowd scenarios drive
				// gradual resizes and the ledger's startup/resize causes
				// are exercised under every scenario.
				e.Workload = cruiseWorkload(t, e)

				// The one sink, armed as -manifest and -attrib-out arm it: a
				// collector on its registry, a recorder, and a ledger watching
				// the recorder's stage spans, all opened by the cell runner.
				sink := &Sink{flags: Flags{AttribOut: "-"}, reg: telemetry.NewRegistry()}
				e.sink = sink

				set, err := e.Traces(market.M1Small)
				if err != nil {
					t.Fatal(err)
				}
				strat := core.New()
				res, err := e.replayCell(set, LockSpec(), strat, 3, e.cellSeed(strat, 3), sink.reserve(1), name)
				if err != nil {
					t.Fatal(err)
				}
				reg, led := sink.reg, sink.ledger(0)

				a := led.Attribution()
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
			})
		}
	}
}

// TestTournamentProvenanceJIdentity pins the determinism contract for
// the observability outputs: a tournament run with -spans-out and
// -attrib-out, opened and closed through the one sink as the command
// does, emits byte-identical leaderboard JSON, spans file and
// attribution document at any worker-pool width.
func TestTournamentProvenanceJIdentity(t *testing.T) {
	run := func(jobs int) (leaderboard, spans, attrib []byte) {
		dir := t.TempDir()
		f := Flags{
			Train: 6, Weeks: 1, Jobs: jobs, SpansSample: 4,
			SpansOut: filepath.Join(dir, "spans.jsonl"), AttribOut: filepath.Join(dir, "attrib.json"),
		}
		e, sink, err := f.Open("j-identity", LockSpec())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Tournament(TournamentConfig{
			Specs:     []string{"jupiter", "baseline"},
			Scenarios: []string{"calm", "reclaim-storm"},
			Seeds:     []uint64{2014},
		})
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(nil); err != nil {
			t.Fatal(err)
		}
		if spans, err = os.ReadFile(f.SpansOut); err != nil {
			t.Fatal(err)
		}
		if attrib, err = os.ReadFile(f.AttribOut); err != nil {
			t.Fatal(err)
		}
		return js, spans, attrib
	}
	j1, s1, a1 := run(1)
	j4, s4, a4 := run(4)
	if !bytes.Equal(j1, j4) {
		t.Errorf("leaderboard JSON differs between -j 1 and -j 4: %d vs %d bytes", len(j1), len(j4))
	}
	if !bytes.Equal(s1, s4) {
		t.Errorf("span stream differs between -j 1 and -j 4: %d vs %d bytes", len(s1), len(s4))
	}
	if !bytes.Equal(a1, a4) {
		t.Errorf("attribution document differs between -j 1 and -j 4: %d vs %d bytes", len(a1), len(a4))
	}
	if !bytes.Contains(j1, []byte(`"attributions"`)) || !bytes.Contains(a1, []byte(`"scenario": "reclaim-storm"`)) {
		t.Error("leaderboard or attribution document carries no per-scenario attribution")
	}
	// Sanity: the stream actually carries stamped spans from both cells.
	for _, want := range []string{`"scenario":"reclaim-storm"`, `"scenario":"calm"`, `"strategy":"Jupiter"`} {
		if !bytes.Contains(s1, []byte(want)) {
			t.Errorf("span stream missing %s", want)
		}
	}
}
