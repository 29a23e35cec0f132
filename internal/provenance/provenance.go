// Package provenance explains runs after the fact: a sampling-aware
// span layer over the Decide pipeline and an attribution ledger over
// the simulation event stream.
//
// Spans answer "why this bid at minute M". Jupiter (and any strategy
// implementing Consumer) emits one span per pipeline step of a sampled
// decision — model fetch and forecast build per pool, candidate
// enumeration per group size, the dominance rule between candidate
// families, the quorum refine descent, degradation-stage transitions,
// and the chosen configuration with its exact Eq. 10 availability
// margin. The stream serializes to versioned JSONL next to the event
// trace (see WriteSpans) and `analyze explain` reconstructs decisions
// from it.
//
// The ledger (ledger.go) answers "where did every cent and every
// downtime minute go": it folds billing closures and quorum-down
// intervals into (pool, cause) cells reconciled exactly against the
// run's cost and the telemetry Collector's downtime mass.
//
// The no-observer hot path pays nothing: Begin on a nil *Recorder
// returns a nil *DecisionTrace, every emission site is guarded on it,
// and BenchmarkReplayObservers pins the unobserved replay.
package provenance

// SpansSchema and SpansVersion identify the JSONL span-stream format:
// line 1 is a SpansHeader, every further line one Span. Encoding is
// deterministic — fixed field order, sorted meta keys — so equal runs
// write byte-identical files, like the telemetry event trace.
const (
	SpansSchema  = "jupiter-spans"
	SpansVersion = 1
)

// Span kinds, in rough pipeline order.
const (
	// SpanStage reports the degradation stage the decision ran under;
	// Outcome is the stage name, Detail marks a transition.
	SpanStage = "stage"
	// SpanPool reports one pool's model-fetch/forecast outcome:
	// "quarantined", "no-history", "forecast-failed", or "ok" (with the
	// current spot price).
	SpanPool = "pool"
	// SpanCandidate reports one enumerated group size: Outcome
	// "infeasible-target" (the equalized inversion failed or fell below
	// FP0), "short" (not enough adequate pools), or "feasible" (with
	// the bid-sum cost upper bound).
	SpanCandidate = "candidate"
	// SpanDominance reports the planner's both-axes rule between the
	// base-weight family (Cost/Cur fields) and the heterogeneous
	// families (Alt fields); Outcome names the winner, "base" or "het".
	// A Decide whose every candidate is one base node has one family
	// and emits none.
	SpanDominance = "dominance"
	// SpanRefine reports the heterogeneous-bid descent: AltMicroUSD is
	// the bid sum before, CostMicroUSD after.
	SpanRefine = "refine"
	// SpanBid reports one member of the chosen group: the placed bid,
	// the pool's current price, and the bid's estimated per-interval
	// failure probability. On-demand members carry Outcome "on-demand"
	// and their fixed price as the bid.
	SpanBid = "bid"
	// SpanChosen closes a decision: Outcome "ok" with the group size,
	// planned cost (bids plus on-demand members' prices, the figure the
	// winning candidate span carried unless hardening or refinement
	// moved it), exact quorum availability, target, and Eq. 10 margin —
	// or "fallback" with Detail naming why the framework went all
	// on-demand.
	SpanChosen = "chosen"
	// SpanResize reports that a workload load target raised the
	// decision's minimum group size above the spec's quorum floor:
	// Nodes is the bound applied to the candidate enumeration.
	SpanResize = "resize"
)

// Span is one step of one decision. It is a flat struct with a fixed
// JSON field order; unset fields are omitted, so spans from single-run
// streams stay compact and multi-run streams carry their cell
// coordinates in the stamping fields.
type Span struct {
	// Stamping fields: the replay cell the span belongs to, filled by
	// Recorder.Stamp when streams of several runs share one file.
	Strategy string `json:"strategy,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Service  string `json:"service,omitempty"`
	Interval string `json:"interval,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	// Decision is the 1-based Decide sequence number within the run;
	// Minute is the simulated minute the decision ran at. Both are
	// stamped by DecisionTrace.Emit.
	Decision int64  `json:"decision"`
	Minute   int64  `json:"minute"`
	Kind     string `json:"kind"`
	Pool     string `json:"pool,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// Nodes is the group size of candidate and chosen spans: base-node
	// equivalents W on a candidate, members on a chosen span.
	Nodes int `json:"nodes,omitempty"`
	// FPTarget is the equalized per-node failure target of a candidate;
	// FP the estimated failure probability of a placed bid.
	FPTarget float64 `json:"fp_target,omitempty"`
	FP       float64 `json:"fp,omitempty"`
	// Money fields are integer micro-USD, matching market.Money.
	BidMicroUSD    int64 `json:"bid_microusd,omitempty"`
	CurMicroUSD    int64 `json:"cur_microusd,omitempty"`
	CostMicroUSD   int64 `json:"cost_microusd,omitempty"`
	AltMicroUSD    int64 `json:"alt_microusd,omitempty"`
	AltCurMicroUSD int64 `json:"alt_cur_microusd,omitempty"`
	// Availability/Target/Margin carry the chosen group's exact quorum
	// evaluation: Margin = Availability - Target, the Eq. 10 slack.
	Availability float64 `json:"availability,omitempty"`
	Target       float64 `json:"target,omitempty"`
	Margin       float64 `json:"margin,omitempty"`
}

// Stamp is the run coordinate set stamped onto a recorder's spans.
type Stamp struct {
	Strategy string
	Scenario string
	Service  string
	Interval string
	Seed     uint64
}

// Recorder collects the spans of one run. Like telemetry.Collector it
// belongs to ONE run: Begin/Emit are called synchronously from the
// run's decision path and take no locks. A nil *Recorder is a valid
// receiver everywhere — Begin returns nil and the run records nothing.
type Recorder struct {
	sample    int
	decisions int64
	spans     []Span
}

// NewRecorder returns a recorder tracing every sample-th decision
// (starting with the first); sample <= 1 traces every decision.
func NewRecorder(sample int) *Recorder {
	if sample < 1 {
		sample = 1
	}
	return &Recorder{sample: sample}
}

// DecisionTrace is the emission handle for one sampled decision. A nil
// *DecisionTrace (unsampled decision, or no recorder at all) ignores
// Emit; hot paths guard span construction on it so an unobserved
// decision allocates nothing.
type DecisionTrace struct {
	r        *Recorder
	decision int64
	minute   int64
}

// Begin opens the trace of one decision at the given simulated minute.
// It returns nil — record nothing — on a nil receiver or an unsampled
// decision.
func (r *Recorder) Begin(minute int64) *DecisionTrace {
	if r == nil {
		return nil
	}
	r.decisions++
	if r.sample > 1 && (r.decisions-1)%int64(r.sample) != 0 {
		return nil
	}
	return &DecisionTrace{r: r, decision: r.decisions, minute: minute}
}

// Emit records one span, stamped with the decision's sequence number
// and minute. No-op on a nil receiver.
func (d *DecisionTrace) Emit(s Span) {
	if d == nil {
		return
	}
	s.Decision = d.decision
	s.Minute = d.minute
	d.r.spans = append(d.r.spans, s)
}

// Decisions returns how many decisions the run made (sampled or not).
func (r *Recorder) Decisions() int64 {
	if r == nil {
		return 0
	}
	return r.decisions
}

// Spans returns the recorded spans in emission order. The slice is the
// recorder's own; callers that mutate it should copy first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Stamp writes the run coordinates onto every recorded span, so spans
// of several runs can share one stream and still key apart.
func (r *Recorder) Stamp(st Stamp) {
	if r == nil {
		return
	}
	for i := range r.spans {
		r.spans[i].Strategy = st.Strategy
		r.spans[i].Scenario = st.Scenario
		r.spans[i].Service = st.Service
		r.spans[i].Interval = st.Interval
		r.spans[i].Seed = st.Seed
	}
}

// Consumer is implemented by strategies that can record decision
// provenance; the replay harness hands them the run's recorder
// (replay.Config.Spans), mirroring modelcache.Consumer.
type Consumer interface {
	UseRecorder(*Recorder)
}
