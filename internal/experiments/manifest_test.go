package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

func TestManifestRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("m_total", "").With().Add(11)
	s := &Sink{
		flags: Flags{Seed: 2014, Jobs: 3}, command: "replay", reg: reg,
		meta:  map[string]string{"command": "replay", "interval": "3h"},
		start: time.Now().Add(-2 * time.Second),
	}
	s.reserve(2)
	s.cells[0] = &sinkCell{
		label: provenance.Stamp{Strategy: "Jupiter", Service: "lock", Interval: "3h", Seed: 2014},
		led:   provenance.NewLedger(),
		res:   &replay.Result{Strategy: "Jupiter", Cost: market.Money(1234), DownMinutes: 5, Series: make([]replay.IntervalStats, 3)},
	}
	m := s.manifest()
	if m.Schema != ManifestSchema || m.Version != ManifestVersion || m.Command != "replay" {
		t.Fatalf("manifest header = %+v", m)
	}
	if m.WallSeconds < 1.5 {
		t.Fatalf("wall seconds = %g, want >= 1.5", m.WallSeconds)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 2014 || got.Config["interval"] != "3h" || got.Config["jobs"] != "3" || got.Config["command"] != "" {
		t.Fatalf("round-trip = %+v", got)
	}
	if len(got.Metrics.Families) != 1 || got.Metrics.Families[0].Series[0].Value != 11 {
		t.Fatalf("metric snapshot lost: %+v", got.Metrics)
	}
	// One record for the one finished cell; the series stays out of it.
	if len(got.Runs) != 1 || got.Runs[0].Stamp != s.cells[0].label ||
		got.Runs[0].Result.Cost != 1234 || got.Runs[0].Result.DownMinutes != 5 || got.Runs[0].Result.Series != nil {
		t.Fatalf("records = %+v", got.Runs)
	}
}
