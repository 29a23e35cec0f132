package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// goldenEventsSHA256 pins the byte-exact JSONL event trace of a fixed
// replay configuration. The forecast fast path (lock-free model reads,
// flat-matrix DP, suffix-sum bid search) and the parallel zone build
// are required to be observationally invisible; this hash is the
// end-to-end witness. It was recorded before those optimizations
// landed and must never change as a side effect of performance work.
// (A deliberate semantic change to the simulation must update it, with
// the reason in the commit.)
const goldenEventsSHA256 = "5024363114c270e71d867cb5f66b5bf607bc4928c96be0426c92c964b75d7e40"

// goldenRun executes the pinned configuration (plus any tweaks) and
// returns the event trace's hex SHA-256.
func goldenRun(t *testing.T, tweak func(*options)) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "events.jsonl")
	o := options{
		Flags:     experiments.Flags{Seed: 2014, Train: 6, Weeks: 2, Jobs: 1, EventsOut: out},
		strategy:  "jupiter",
		service:   "lock",
		intervals: "3",
	}
	if tweak != nil {
		tweak(&o)
	}
	// The detailed report goes to stdout; silence it for the test run.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldStdout := os.Stdout
	os.Stdout = devnull
	runErr := run(o)
	os.Stdout = oldStdout
	if runErr != nil {
		t.Fatal(runErr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty event trace")
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestReplayEventTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full replay; skipped in -short")
	}
	if got := goldenRun(t, nil); got != goldenEventsSHA256 {
		t.Fatalf("event trace hash %s, want %s — the replay is no longer byte-identical", got, goldenEventsSHA256)
	}
}

// TestReplayEventTraceGoldenFlatWorkload pins the autoscaler's arming
// rule end to end: a -workload whose rate is constant (and whose plan
// never leaves the spec's base size) must leave the entire run — event
// trace metadata included — byte-identical to the fixed-n golden.
func TestReplayEventTraceGoldenFlatWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full replay; skipped in -short")
	}
	wlFile := filepath.Join(t.TempDir(), "flat.csv")
	if err := os.WriteFile(wlFile, []byte("minute,rps\n0,3000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := goldenRun(t, func(o *options) { o.Workload = wlFile })
	if got != goldenEventsSHA256 {
		t.Fatalf("flat-workload event trace hash %s, want %s — the constant workload perturbed the run", got, goldenEventsSHA256)
	}
}
