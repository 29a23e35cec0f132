// Package provenance explains runs after the fact: a sampling-aware
// span layer over the Decide pipeline and an attribution ledger over
// the simulation event stream.
//
// Spans answer "why this bid at minute M". Jupiter (and any strategy
// implementing Consumer) emits one span per pipeline step of a sampled
// decision — model fetch and forecast build per pool, candidate
// enumeration per group size, the dominance rule between candidate
// families, degradation-stage transitions, and the chosen configuration
// with its exact Eq. 10 availability margin. A run's spans go into its
// replay cell's record in the run manifest (internal/experiments), and
// `analyze explain` reconstructs decisions from there.
//
// The ledger (ledger.go) answers "where did every cent and every
// downtime minute go": a pure fold of the simulation event stream, it
// puts billing closures and quorum-down intervals into (pool, cause)
// cells reconciled exactly against the run's cost and the telemetry
// Collector's downtime mass. It reads no spans, so a run attributes the
// same at any span sampling rate, and folding the run's event trace
// offline gives the same table.
//
// The no-observer hot path pays nothing: Begin on a nil *Recorder
// returns a nil *DecisionTrace, every emission site is guarded on it,
// and BenchmarkReplayObservers pins the unobserved replay.
package provenance

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
	// the bid-sum cost upper bound) — or, at most once per decision and
	// last, "pruned": the first size not priced, with the constraint-(9)
	// lower bound that no group of it or any larger size can undercut.
	SpanCandidate = "candidate"
	// SpanDominance reports the planner's both-axes rule between the
	// base-weight family (Cost/Cur fields) and the heterogeneous
	// families (Alt fields); Outcome names the winner, "base" or "het".
	// A Decide whose every candidate is one base node has one family
	// and emits none.
	SpanDominance = "dominance"
	// SpanBid reports one member of the chosen group: the placed bid,
	// the pool's current price, and the bid's estimated per-interval
	// failure probability. On-demand members carry Outcome "on-demand"
	// and their fixed price as the bid.
	SpanBid = "bid"
	// SpanChosen closes a decision: Outcome "ok" with the group size,
	// planned cost (bids plus on-demand members' prices, the figure the
	// winning candidate span carried unless hardening moved it), exact
	// quorum availability, target, and Eq. 10 margin — or "fallback"
	// with Detail naming why the framework went all on-demand.
	SpanChosen = "chosen"
	// SpanResize reports that a workload load target raised the
	// decision's minimum group size above the spec's quorum floor:
	// Nodes is the bound applied to the candidate enumeration.
	SpanResize = "resize"
)

// Span is one step of one decision. It is a flat struct with a fixed
// JSON field order; unset fields are omitted, so spans stay compact.
// The replay cell a span belongs to is its record's Stamp.
type Span struct {
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

// Stamp is the run coordinate set naming a replay cell's record in the
// run manifest.
type Stamp struct {
	Strategy string `json:"strategy"`
	Scenario string `json:"scenario,omitempty"`
	Service  string `json:"service"`
	Interval string `json:"interval"`
	Seed     uint64 `json:"seed"`
}

// Recorder collects the spans of one run. Like telemetry.Collector it
// belongs to ONE run: Begin/Emit are called synchronously from the
// run's decision path and take no locks. A nil *Recorder is a valid
// receiver everywhere — Begin returns nil and the run records nothing.
//
// Spans are stored in a list of fixed chunks, so Emit writes each span
// once and never copies or re-zeroes earlier ones, as a growing slice
// would at every doubling.
type Recorder struct {
	sample     int
	decisions  int64
	n          int // spans recorded
	head, tail *spanChunk
}

// chunkSpans is the capacity of one storage chunk: 192 spans of 168
// bytes plus the link stay under the runtime's 32 KB large-object size.
const chunkSpans = 192

type spanChunk struct {
	spans [chunkSpans]Span
	next  *spanChunk
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
	r := d.r
	i := r.n % chunkSpans
	if i == 0 {
		c := new(spanChunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail = c
	}
	r.tail.spans[i] = s
	r.n++
}

// Spans returns the recorded spans in emission order, assembled into a
// fresh slice on every call (nil when there are none): the caller owns
// it, and later emissions do not reach it.
func (r *Recorder) Spans() []Span {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Span, 0, r.n)
	for c := r.head; c != nil; c = c.next {
		out = append(out, c.spans[:min(chunkSpans, r.n-len(out))]...)
	}
	return out
}

// Consumer is implemented by strategies that can record decision
// provenance; the replay harness hands them the run's recorder
// (replay.Config.Spans), mirroring modelcache.Consumer.
type Consumer interface {
	UseRecorder(*Recorder)
}
