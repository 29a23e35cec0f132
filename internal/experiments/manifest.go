package experiments

import (
	"encoding/json"
	"io"

	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// ManifestSchema and ManifestVersion identify the run manifest format.
// Version 2 added the per-cell records.
const (
	ManifestSchema  = "jupiter-manifest"
	ManifestVersion = 2
)

// Manifest is the run's one end-of-run record (-manifest): what ran
// (command, config, seed), how long it took, the metric snapshot, and
// one Record per replay cell in grid order — enough to archive a run,
// say where each dollar and down-minute of every cell went, or
// cross-check a re-run without re-parsing stdout.
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
	// Metrics is the registry snapshot at the end of the run.
	Metrics telemetry.Snapshot `json:"metrics"`
	// Runs holds one record per replay cell, never merged: cells that
	// share a label (a figure replayed by two sections of "-run all")
	// stay apart.
	Runs []Record `json:"runs"`
}

// Record is one replay cell: its stamp, its result's scalars, and its
// cost/downtime attribution, which sums to the result's cost and
// downtime exactly.
type Record struct {
	provenance.Stamp
	Result      *replay.Result         `json:"result"`
	Attribution provenance.Attribution `json:"attribution"`
}

// ReadManifest parses a manifest back in.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
