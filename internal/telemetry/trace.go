package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/market"
)

// This file writes the run's JSONL event trace: line 1 is a TraceHeader
// naming the schema (TraceSchema), every further line one TraceEvent.
// TraceVersion versions the format. The encoding is deterministic —
// fixed field order, sorted meta keys — so two runs with identical
// inputs write byte-identical files, which `cmp`, the sha256 goldens and
// `analyze diff` (the one reader, in cmd/analyze) compare across runs,
// binaries and machines: the cross-process version of the in-process
// TestKernelsAgree pin.
const (
	TraceSchema  = "jupiter-events"
	TraceVersion = 1
)

// TraceHeader is the first line of a trace.
type TraceHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Meta records the run configuration (strategy, seed, interval,
	// ...) for provenance; `analyze diff` reports — but tolerates — meta
	// mismatches.
	Meta map[string]string `json:"meta,omitempty"`
}

// TraceEvent is the JSONL form of one engine.Event. Kind and Cause are
// rendered symbolically so traces stay readable and stable across
// renumberings of the in-memory enums.
type TraceEvent struct {
	Minute         int64  `json:"minute"`
	Kind           string `json:"kind"`
	Instance       string `json:"instance,omitempty"`
	Request        string `json:"request,omitempty"`
	Zone           string `json:"zone,omitempty"`
	Spot           bool   `json:"spot,omitempty"`
	Cause          string `json:"cause,omitempty"` // "provider" or "user"; terminations only
	Fault          string `json:"fault,omitempty"` // injector name; chaos fault events only
	AmountMicroUSD int64  `json:"amount_microusd,omitempty"`
	Until          int64  `json:"until,omitempty"`
	Size           int    `json:"size,omitempty"`
	DurationNanos  int64  `json:"duration_nanos,omitempty"`
}

// Record converts an engine event to its trace form.
func Record(e engine.Event) TraceEvent {
	te := TraceEvent{
		Minute:         e.Minute,
		Kind:           e.Kind.String(),
		Instance:       e.Instance,
		Request:        e.Request,
		Zone:           e.Zone,
		Spot:           e.Spot,
		Fault:          e.Fault,
		AmountMicroUSD: int64(e.Amount),
		Until:          e.Until,
		Size:           e.Size,
		DurationNanos:  e.DurationNanos,
	}
	if e.Kind == engine.KindInstanceTerminated {
		if e.Cause == market.TerminatedByProvider {
			te.Cause = "provider"
		} else {
			te.Cause = "user"
		}
	}
	return te
}

// TraceWriter streams an event trace as JSONL. It implements
// engine.Observer; attach it to replay.Config.Observers (or
// experiments.Env) and Close it when the run ends. The writer is
// mutex-guarded so the cells of a parallel sweep may share one file,
// but only a single-run (or -j 1) trace is byte-reproducible — cell
// interleaving follows the scheduler.
type TraceWriter struct {
	engine.BaseObserver
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	err    error
}

// NewTraceWriter writes an event trace's header and returns its
// streaming writer. The meta map is written with sorted keys
// (encoding/json sorts map keys), keeping the header deterministic. If
// w is an io.Closer, Close closes it.
func NewTraceWriter(w io.Writer, meta map[string]string) (*TraceWriter, error) {
	tw := &TraceWriter{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		tw.closer = c
	}
	hdr, err := json.Marshal(TraceHeader{Schema: TraceSchema, Version: TraceVersion, Meta: meta})
	if err != nil {
		return nil, err
	}
	hdr = append(hdr, '\n')
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// write appends one event line; the first error sticks and is returned
// by Close.
func (tw *TraceWriter) write(e engine.Event) {
	// The trace records simulated history, so wall-clock fields are
	// normalized away: they vary run to run and would break the
	// byte-identity of equal-seed traces.
	e.DurationNanos = 0
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return
	}
	line, err := json.Marshal(Record(e))
	if err != nil {
		tw.err = err
		return
	}
	line = append(line, '\n')
	if _, err := tw.w.Write(line); err != nil {
		tw.err = err
	}
}

// OnInstance records lifecycle events. Out-of-bid reclaims arrive here
// as terminations; the OnOutOfBid double delivery is deliberately not
// recorded twice.
func (tw *TraceWriter) OnInstance(e engine.Event) { tw.write(e) }

// OnDecision records bidding decisions.
func (tw *TraceWriter) OnDecision(e engine.Event) { tw.write(e) }

// OnBilling records billing closures.
func (tw *TraceWriter) OnBilling(e engine.Event) { tw.write(e) }

// OnQuorum records quorum transitions.
func (tw *TraceWriter) OnQuorum(e engine.Event) { tw.write(e) }

// OnModel records model-training events.
func (tw *TraceWriter) OnModel(e engine.Event) { tw.write(e) }

// OnFault records chaos fault injections and clearances.
func (tw *TraceWriter) OnFault(e engine.Event) { tw.write(e) }

// Close flushes the trace (closing the underlying writer if it is a
// Closer) and returns the first error encountered.
func (tw *TraceWriter) Close() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if err := tw.w.Flush(); err != nil && tw.err == nil {
		tw.err = err
	}
	if tw.closer != nil {
		if err := tw.closer.Close(); err != nil && tw.err == nil {
			tw.err = err
		}
		tw.closer = nil
	}
	return tw.err
}

// SortedMeta builds a trace/manifest meta map from alternating
// key-value pairs, mainly a readability helper for callers.
func SortedMeta(kv ...string) map[string]string {
	if len(kv)%2 != 0 {
		panic("telemetry: SortedMeta wants key-value pairs")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
