package provenance

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/market"
)

// Attribution causes. Fault-driven cells use the chaos injector name
// verbatim ("reclaim-storm", "zone-blackout", ...), so the constants
// here cover only the causes the ledger derives itself.
const (
	// CauseOutOfBid: a provider reclaim with no active fault window —
	// the market outbid us, the paper's ordinary failure mode.
	CauseOutOfBid = "out-of-bid"
	// CauseOnDemand: on-demand instance time, billed at the fixed rate.
	CauseOnDemand = "on-demand"
	// CauseServed: spot instance time ended by our own shutdown —
	// capacity that served its term and was rotated out by a decision
	// or by run end.
	CauseServed = "served"
	// CauseOutage: downtime overlapping a hardware/software outage.
	CauseOutage = "outage"
	// CauseStartup: downtime while replacement members were still in
	// their view-change/startup delay and nothing else went wrong.
	CauseStartup = "view-change/startup"
	// CauseQuarantine: downtime with no direct event evidence while
	// Jupiter's degradation machinery was in a non-healthy stage
	// (engine.KindStage) — capacity was constrained by quarantined pools.
	CauseQuarantine = "quarantine"
	// CauseResize: spot instance time ended by a gradual-resize detach,
	// and downtime overlapping an in-flight resize window with no
	// stronger evidence — the cost/risk of tracking the workload.
	CauseResize = "resize"
	// CauseUnattributed: downtime with no evidence at all; a non-zero
	// cell here means the taxonomy is missing a mechanism.
	CauseUnattributed = "unattributed"
)

type cellKey struct {
	pool  string
	cause string
}

// AttributionCell is one (pool, cause) accounting cell. Pool is empty
// for costs/downtime with no pool subject (e.g. service-wide
// startup downtime).
type AttributionCell struct {
	Pool         string `json:"pool,omitempty"`
	Cause        string `json:"cause"`
	CostMicroUSD int64  `json:"cost_microusd,omitempty"`
	DownMinutes  int64  `json:"down_minutes,omitempty"`
}

// Attribution is a run's ledger snapshot: every billed micro-dollar
// and every downtime minute in exactly one cell, cells sorted by
// (pool, cause). The invariant — test-enforced per builtin chaos
// scenario — is TotalCostMicroUSD == the run's billed total and
// TotalDownMinutes == the Collector's downtime histogram mass.
type Attribution struct {
	Cells             []AttributionCell `json:"cells"`
	TotalCostMicroUSD int64             `json:"total_cost_microusd"`
	TotalDownMinutes  int64             `json:"total_down_minutes"`
}

// Merge folds another attribution into this one cell-by-cell. Merging
// is commutative and associative, so parallel sweeps can combine
// per-cell ledgers in any order and still render identically.
func (a Attribution) Merge(b Attribution) Attribution {
	byKey := make(map[cellKey]AttributionCell, len(a.Cells)+len(b.Cells))
	for _, c := range a.Cells {
		byKey[cellKey{c.Pool, c.Cause}] = c
	}
	for _, c := range b.Cells {
		k := cellKey{c.Pool, c.Cause}
		m := byKey[k]
		m.Pool, m.Cause = c.Pool, c.Cause
		m.CostMicroUSD += c.CostMicroUSD
		m.DownMinutes += c.DownMinutes
		byKey[k] = m
	}
	out := Attribution{
		Cells:             make([]AttributionCell, 0, len(byKey)),
		TotalCostMicroUSD: a.TotalCostMicroUSD + b.TotalCostMicroUSD,
		TotalDownMinutes:  a.TotalDownMinutes + b.TotalDownMinutes,
	}
	for _, c := range byKey {
		out.Cells = append(out.Cells, c)
	}
	sortCells(out.Cells)
	return out
}

func sortCells(cells []AttributionCell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Pool != cells[j].Pool {
			return cells[i].Pool < cells[j].Pool
		}
		return cells[i].Cause < cells[j].Cause
	})
}

// WorstCause returns the cause with the most attributed downtime
// minutes (ties to the lexicographically first), or "" when the run
// had none — what a leaderboard row cites as "what broke this rival".
func (a Attribution) WorstCause() string {
	byCause := map[string]int64{}
	for _, c := range a.Cells {
		byCause[c.Cause] += c.DownMinutes
	}
	worst, max := "", int64(0)
	causes := make([]string, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		if byCause[c] > max {
			worst, max = c, byCause[c]
		}
	}
	return worst
}

// RenderAttribution writes the human-readable (pool, cause) table.
func RenderAttribution(w io.Writer, a Attribution) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POOL\tCAUSE\tCOST\tDOWN-MIN")
	for _, c := range a.Cells {
		pool := c.Pool
		if pool == "" {
			pool = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", pool, c.Cause, market.Money(c.CostMicroUSD), c.DownMinutes)
	}
	fmt.Fprintf(tw, "TOTAL\t\t%s\t%d\n", market.Money(a.TotalCostMicroUSD), a.TotalDownMinutes)
	return tw.Flush()
}

// Ledger is an engine.Observer that folds a run's event stream into
// (pool, cause) attribution cells. Like telemetry.Collector it belongs
// to ONE run and relies on the kernel's deterministic event order:
//
//   - Terminations always precede their billing closure (the provider
//     publishes both back to back), so every KindBillingClose finds its
//     cause already resolved.
//   - Chaos fault windows and per-victim markers are published before
//     the terminations they force, so fault evidence is in place when
//     the reclaim lands.
//   - The harness closes every open bill at run end, so the ledger's
//     cost cells sum bit-exactly to the run's total cost.
//
// Downtime causes cannot be resolved at the quorum-down instant — the
// availability tracker publishes the down transition before the
// instance event that caused it — so evidence is collected while the
// span is open and resolved at quorum-up (or CloseRun).
type Ledger struct {
	engine.BaseObserver

	costs map[cellKey]market.Money
	downs map[cellKey]int64

	// termCause carries each instance's resolved billing cause from its
	// termination event to its billing closure.
	termCause map[string]string
	// instFault names instances individually marked as fault victims
	// (reclaim storms publish a per-victim KindFaultInjected before the
	// forced reclaim).
	instFault map[string]string
	// blackoutUntil tracks open zone-blackout windows, so provider
	// reclaims inside one attribute to the blackout, not to the market.
	blackoutUntil map[string]int64
	// starting holds instances still in their startup delay; a quorum
	// loss while it is non-empty is view-change/startup evidence.
	starting map[string]bool
	// instResize marks instances (and persistent requests) retired by a
	// gradual-resize detach, so their user-termination bills to the
	// resize instead of ordinary rotation.
	instResize map[string]bool
	// resizing is true between a resize target and its settle/abort.
	resizing bool

	// stages logs the run's degradation-stage transitions in minute
	// order, for quarantine evidence.
	stages []stageMark

	// Open downtime span state.
	downSince  int64
	evFault    string
	evOutOfBid bool
	evOutage   bool
	evStartup  bool
	evResize   bool
	evZone     string
}

// stageMark is one degradation-stage transition: from minute on, the
// strategy ran healthy or not.
type stageMark struct {
	minute  int64
	healthy bool
}

// NewLedger returns an empty ledger for one run.
func NewLedger() *Ledger {
	return &Ledger{
		costs:         map[cellKey]market.Money{},
		downs:         map[cellKey]int64{},
		termCause:     map[string]string{},
		instFault:     map[string]string{},
		blackoutUntil: map[string]int64{},
		starting:      map[string]bool{},
		instResize:    map[string]bool{},
		downSince:     -1,
	}
}

// WatchStages does nothing: the ledger reads degradation stages from
// the event stream (engine.KindStage), never from spans. It is kept
// only because the benchmark (bench/workloads.go) still calls it.
func (l *Ledger) WatchStages(*Recorder) {}

// OnFault records fault windows and per-victim markers.
func (l *Ledger) OnFault(e engine.Event) {
	if e.Kind != engine.KindFaultInjected {
		return
	}
	if e.Instance != "" {
		l.instFault[e.Instance] = e.Fault
		return
	}
	if e.Fault == "zone-blackout" && e.Zone != "" && e.Until > e.Minute {
		l.blackoutUntil[e.Zone] = e.Until
	}
}

// OnDecision logs degradation-stage transitions and tracks
// gradual-resize windows. A resize target opens one; its settle or
// abort step closes it. Detach steps mark the retired member (by
// instance and by persistent request) so its user-termination bills to
// the resize, and count as resize evidence for an open downtime span.
func (l *Ledger) OnDecision(e engine.Event) {
	switch e.Kind {
	case engine.KindStage:
		l.stages = append(l.stages, stageMark{minute: e.Minute, healthy: e.Fault == "healthy"})
	case engine.KindResizeTarget:
		l.resizing = true
	case engine.KindResizeStep:
		switch e.Fault {
		case "detach":
			if e.Instance != "" {
				l.instResize[e.Instance] = true
			}
			if e.Request != "" {
				l.instResize[e.Request] = true
			}
			if l.downSince >= 0 {
				l.evResize = true
			}
		case "settled", "abort":
			l.resizing = false
		}
	}
}

// OnInstance tracks startup windows and resolves termination causes.
func (l *Ledger) OnInstance(e engine.Event) {
	switch e.Kind {
	case engine.KindInstanceLaunched:
		l.starting[e.Instance] = true
	case engine.KindInstanceRunning:
		delete(l.starting, e.Instance)
	case engine.KindOutageStart:
		if l.downSince >= 0 {
			l.evOutage = true
			if l.evZone == "" {
				l.evZone = e.Zone
			}
		}
	case engine.KindInstanceTerminated:
		delete(l.starting, e.Instance)
		cause := l.terminationCause(e)
		l.termCause[e.Instance] = cause
		if l.downSince >= 0 && e.Spot {
			switch cause {
			case CauseOutOfBid:
				l.evOutOfBid = true
				l.evZone = e.Zone
			case CauseOnDemand, CauseServed, CauseResize:
			default: // a fault injector's doing
				l.evFault = cause
				l.evZone = e.Zone
			}
		}
	}
}

// terminationCause classifies one termination. Price-spike and
// trace-gap windows deliberately do NOT reroute attribution: their
// mechanism is still the market leaving the bid behind, so those
// reclaims stay "out-of-bid" and the fault shows up in the scenario
// column instead.
func (l *Ledger) terminationCause(e engine.Event) string {
	if !e.Spot {
		return CauseOnDemand
	}
	if f, ok := l.instFault[e.Instance]; ok {
		delete(l.instFault, e.Instance)
		return f
	}
	if e.Cause == market.TerminatedByProvider {
		if until, ok := l.blackoutUntil[e.Zone]; ok {
			if e.Minute < until {
				return "zone-blackout"
			}
			delete(l.blackoutUntil, e.Zone)
		}
		return CauseOutOfBid
	}
	if l.instResize[e.Instance] || (e.Request != "" && l.instResize[e.Request]) {
		delete(l.instResize, e.Instance)
		delete(l.instResize, e.Request)
		return CauseResize
	}
	return CauseServed
}

// OnBilling folds a billing closure into its (pool, cause) cell.
func (l *Ledger) OnBilling(e engine.Event) {
	cause, ok := l.termCause[e.Instance]
	if !ok {
		// A bill with no recorded termination (cannot happen in the
		// kernel's event order) still must not lose money.
		cause = CauseUnattributed
	}
	delete(l.termCause, e.Instance)
	l.costs[cellKey{e.Zone, cause}] += e.Amount
}

// OnQuorum opens and closes downtime spans, mirroring the Collector's
// downtime arithmetic exactly so the minute totals reconcile.
func (l *Ledger) OnQuorum(e engine.Event) {
	switch e.Kind {
	case engine.KindQuorumDown:
		if l.downSince < 0 {
			l.downSince = e.Minute
			l.evFault, l.evOutOfBid, l.evOutage, l.evZone = "", false, false, ""
			l.evStartup = len(l.starting) > 0
			l.evResize = l.resizing
		}
	case engine.KindQuorumUp:
		if l.downSince >= 0 {
			l.closeSpan(e.Minute)
		}
	}
}

// closeSpan attributes one finished downtime interval. Evidence wins
// in mechanism order: a named fault beats the ordinary out-of-bid
// market, which beats an SLA outage, which beats a pure startup
// window, which beats an in-flight resize window; with no event
// evidence at all, a non-healthy degradation stage at the span's
// opening minute marks it as quarantine-constrained.
func (l *Ledger) closeSpan(endMinute int64) {
	cause, pool := CauseUnattributed, ""
	switch {
	case l.evFault != "":
		cause, pool = l.evFault, l.evZone
	case l.evOutOfBid:
		cause, pool = CauseOutOfBid, l.evZone
	case l.evOutage:
		cause, pool = CauseOutage, l.evZone
	case l.evStartup || len(l.starting) > 0:
		cause = CauseStartup
	case l.evResize || l.resizing:
		cause = CauseResize
	case l.quarantinedAt(l.downSince):
		cause = CauseQuarantine
	}
	l.downs[cellKey{pool, cause}] += endMinute - l.downSince
	l.downSince = -1
}

// quarantinedAt reports whether the stage ruling at the given minute —
// set by the last transition at or before it — was non-healthy. It is
// asked at span close, so a transition published later in the span's
// opening minute still counts. Before any transition the run is healthy.
func (l *Ledger) quarantinedAt(minute int64) bool {
	for i := len(l.stages) - 1; i >= 0; i-- {
		if l.stages[i].minute <= minute {
			return !l.stages[i].healthy
		}
	}
	return false
}

// CloseRun finalizes the ledger at the run's end minute, closing any
// open downtime span — the same closing rule as the Collector's, so
// the totals stay reconciled. The experiments harness calls this on
// every observer exposing it.
func (l *Ledger) CloseRun(endMinute int64) {
	if l.downSince >= 0 {
		l.closeSpan(endMinute)
	}
}

// Attribution snapshots the ledger into its sorted cell table.
func (l *Ledger) Attribution() Attribution {
	byKey := map[cellKey]AttributionCell{}
	for k, v := range l.costs {
		c := byKey[k]
		c.Pool, c.Cause = k.pool, k.cause
		c.CostMicroUSD = int64(v)
		byKey[k] = c
	}
	for k, v := range l.downs {
		c := byKey[k]
		c.Pool, c.Cause = k.pool, k.cause
		c.DownMinutes = v
		byKey[k] = c
	}
	a := Attribution{Cells: make([]AttributionCell, 0, len(byKey))}
	for _, c := range byKey {
		if c.CostMicroUSD == 0 && c.DownMinutes == 0 {
			// A $0 billing close (instance gone within its first partial
			// minute) carries no information; keep the table dense.
			continue
		}
		a.Cells = append(a.Cells, c)
		a.TotalCostMicroUSD += c.CostMicroUSD
		a.TotalDownMinutes += c.DownMinutes
	}
	sortCells(a.Cells)
	return a
}
