package telemetry

import (
	"bytes"
	"testing"
	"time"
)

func TestManifestRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "").With().Add(11)
	start := time.Now().Add(-2 * time.Second)
	m := NewManifest("replay", 2014, map[string]string{"interval": "3h"}, start, reg)
	if m.Schema != ManifestSchema || m.Version != ManifestVersion {
		t.Fatalf("manifest header = %+v", m)
	}
	if m.WallSeconds < 1.5 {
		t.Fatalf("wall seconds = %g, want >= 1.5", m.WallSeconds)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 2014 || got.Config["interval"] != "3h" {
		t.Fatalf("round-trip = %+v", got)
	}
	if len(got.Metrics.Families) != 1 || got.Metrics.Families[0].Series[0].Value != 11 {
		t.Fatalf("metric snapshot lost: %+v", got.Metrics)
	}
}
