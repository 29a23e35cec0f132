package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/trace"
)

func TestManifestRoundTrip(t *testing.T) {
	s := &Sink{
		flags: Flags{Seed: 2014, Jobs: 3}, command: "replay",
		meta:  map[string]string{"command": "replay", "interval": "3h"},
		start: time.Now().Add(-2 * time.Second),
	}
	s.reserve(2)
	rec := provenance.NewRecorder(1)
	rec.Begin(60).Emit(provenance.Span{Kind: provenance.SpanChosen, Outcome: "ok", Nodes: 5})
	s.cells[0] = &sinkCell{
		label: provenance.Stamp{Strategy: "Jupiter", Service: "lock", Interval: "3h", Seed: 2014},
		led:   provenance.NewLedger(),
		rec:   rec,
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
	// One record for the one finished cell, with its spans; the series
	// stays out of it.
	if len(got.Runs) != 1 || got.Runs[0].Stamp != s.cells[0].label ||
		got.Runs[0].Result.Cost != 1234 || got.Runs[0].Result.DownMinutes != 5 || got.Runs[0].Result.Series != nil {
		t.Fatalf("records = %+v", got.Runs)
	}
	if !reflect.DeepEqual(got.Runs[0].Spans, rec.Spans()) {
		t.Fatalf("record spans = %+v, want %+v", got.Runs[0].Spans, rec.Spans())
	}
}

// TestReadManifestRejectsWrongSchema: an event trace, or any document
// of another schema, is not read as an empty manifest; the error names
// the field and both schemas.
func TestReadManifestRejectsWrongSchema(t *testing.T) {
	_, err := ReadManifest(strings.NewReader(`{"schema":"jupiter-events","version":1}` + "\n"))
	if err == nil || err.Error() != `manifest: field "schema" is "jupiter-events", want "jupiter-manifest"` {
		t.Errorf("wrong schema: %v", err)
	}
}

// TestReadManifestRejectsNewerVersion: a manifest newer than this build
// reads is an error naming the field and both versions, not a record
// read with fields silently dropped.
func TestReadManifestRejectsNewerVersion(t *testing.T) {
	_, err := ReadManifest(strings.NewReader(`{"schema":"jupiter-manifest","version":99,"runs":[]}`))
	if err == nil || !strings.Contains(err.Error(), `manifest: field "version" is 99, newer than 3`) {
		t.Errorf("newer version: %v", err)
	}
	if _, err := ReadManifest(strings.NewReader(`{"schema":"jupiter-manifest","version":2,"runs":[]}`)); err != nil {
		t.Errorf("an older version is read: %v", err)
	}
}

// lenientOpen opens a run over the lock market's one-week CSV with bad
// rows inserted below its header, read leniently, and returns the file
// and the run's sink.
func lenientOpen(t *testing.T, bad ...string) (string, *Sink) {
	t.Helper()
	set, err := Env{Seed: 2014, ReplayWeeks: 1}.Traces(LockSpec().Type)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows, _ := strings.Cut(buf.String(), "\n")
	file := filepath.Join(t.TempDir(), "prices.csv")
	if err := os.WriteFile(file, []byte(header+"\n"+strings.Join(append(bad, rows), "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, sink, err := Flags{Train: 1, Weeks: 1, Trace: file, Lenient: true, Manifest: "-"}.Open("test", LockSpec())
	if err != nil {
		t.Fatal(err)
	}
	return file, sink
}

// TestManifestRecordsQuarantinedRows: a lenient read's quarantined rows
// reach the manifest, counted by reason under the file read.
func TestManifestRecordsQuarantinedRows(t *testing.T) {
	file, sink := lenientOpen(t, "us-east-1a,m1.small,x,0.01\n", "us-east-1a,m1.small,0,NaN\n", "us-east-1a,m1.small,1,NaN\n")
	got := sink.manifest().Quarantined
	want := map[string]map[string]int{file: {trace.ReasonBadMinute: 1, trace.ReasonNaNPrice: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("quarantined = %v, want %v", got, want)
	}
}

// TestManifestCleanReadRecordsNoQuarantine: a clean read leaves the
// manifest's quarantine field out altogether.
func TestManifestCleanReadRecordsNoQuarantine(t *testing.T) {
	_, sink := lenientOpen(t)
	b, err := json.Marshal(sink.manifest())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("quarantined")) {
		t.Errorf("a clean read's manifest names a quarantine: %s", b)
	}
}
