package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/provenance"
	"repro/internal/replay"
)

// ManifestSchema and ManifestVersion identify the run manifest format.
// Version 2 added the per-cell records; version 3 added their decision
// spans and the quarantined-row counts, and dropped the metric
// snapshot.
const (
	ManifestSchema  = "jupiter-manifest"
	ManifestVersion = 3
)

// Manifest is the run's one end-of-run record (-manifest): what ran
// (command, config, seed), how long it took, what a lenient read
// quarantined, and one Record per replay cell in grid order — enough to
// archive a run, say where each dollar and down-minute of every cell
// went and why each sampled bid was chosen, or cross-check a re-run
// without re-parsing stdout. Beside it, the -events-out trace is the
// run's determinism pin.
type Manifest struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Command is the emitting CLI ("replay", "experiments", ...).
	Command string `json:"command"`
	// StartedAt is the wall-clock start in RFC3339.
	StartedAt string `json:"started_at"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// Seed is the master seed of the run.
	Seed uint64 `json:"seed"`
	// Config records the flag values that shaped the run.
	Config map[string]string `json:"config,omitempty"`
	// Quarantined holds, per file a lenient read quarantined rows of,
	// its quarantined-row counts by reason (trace.ReadReport.Reasons).
	Quarantined map[string]map[string]int `json:"quarantined,omitempty"`
	// Runs holds one record per replay cell, never merged: cells that
	// share a label (a figure replayed by two sections of "-run all")
	// stay apart.
	Runs []Record `json:"runs"`
}

// Record is one replay cell: its stamp, its result's scalars, its
// cost/downtime attribution, which sums to the result's cost and
// downtime exactly, and the decision spans the cell's strategy recorded
// at every -spans-sample'th decision (none without it, and none from a
// strategy that records no provenance).
type Record struct {
	provenance.Stamp
	Result      *replay.Result         `json:"result"`
	Attribution provenance.Attribution `json:"attribution"`
	Spans       []provenance.Span      `json:"spans,omitempty"`
}

// ReadManifest parses a manifest back in. A document of another schema,
// or of a version newer than ManifestVersion, is an error naming the
// field.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("manifest: field \"schema\" is %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Version > ManifestVersion {
		return nil, fmt.Errorf("manifest: field \"version\" is %d, newer than %d, the newest this build reads", m.Version, ManifestVersion)
	}
	return &m, nil
}
