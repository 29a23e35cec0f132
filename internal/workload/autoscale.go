package workload

// The autoscaler's controller. One node serves nodeRPS requests/sec,
// which puts the generated workload's diurnal mean near a five-node
// group. Utilization above upFraction grows the group at once to the
// smallest size back under it; utilization below downFraction may
// shrink it once holdMinutes have passed since the last change. The
// gap between the two fractions is the hysteresis band, the hold the
// classic scale-down cooldown: together they keep an oscillating load
// from flapping the group size. The target never exceeds maxFactor
// times the base size.
const (
	nodeRPS      = 1000
	maxFactor    = 3
	upFraction   = 0.75
	downFraction = 0.45
	holdMinutes  = 60
)

// Autoscaler maps a request-rate trace to a target group-size plan.
// Scale-up is immediate (a flash crowd must be met head-on); scale-
// down waits out the cooldown.
type Autoscaler struct {
	// BaseNodes is the group's floor: the paper's deployment size.
	BaseNodes int
}

// DefaultAutoscaler returns the autoscaler the replay harness arms
// for a workload over a baseNodes-node deployment.
func DefaultAutoscaler(baseNodes int) Autoscaler {
	return Autoscaler{BaseNodes: baseNodes}
}

// TargetStep is one step of a group-size plan: from Minute on, the
// group should hold Target nodes.
type TargetStep struct {
	Minute int64
	Target int
}

// Plan is a precomputed target-size schedule over a trace's span,
// with steps in strictly ascending minute order, the first at the
// span start.
type Plan struct {
	Start, End int64
	Steps      []TargetStep
}

// TargetAt returns the target group size ruling at a minute.
func (p *Plan) TargetAt(minute int64) int {
	lo, hi := 0, len(p.Steps)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.Steps[mid].Minute <= minute {
			lo = mid
		} else {
			hi = mid
		}
	}
	return p.Steps[lo].Target
}

// Holds reports whether the plan keeps the group at n nodes for its
// whole span. That is the autoscale arming rule: the replay harness arms
// no resizing for such a plan, and the commands stamp no workload on its
// run, so both stay byte-identical to a fixed-n run.
func (p *Plan) Holds(n int) bool {
	return len(p.Steps) == 1 && p.TargetAt(p.Start) == n
}

// NextDeviation returns the first minute at or after from where the
// plan's target differs from size. ok is false when the target equals
// size from there on out — the plan holds the given size forever.
func (p *Plan) NextDeviation(from int64, size int) (int64, bool) {
	if p.TargetAt(from) != size {
		return from, true
	}
	for _, s := range p.Steps {
		if s.Minute > from && s.Target != size {
			return s.Minute, true
		}
	}
	return 0, false
}

// Plan walks the trace minute by minute through the hysteresis
// controller and returns the resulting target schedule, which stays
// within [BaseNodes, 3·BaseNodes]. The plan is a pure function of the
// autoscaler and the trace: no randomness, so a seeded workload yields
// a deterministic plan. The error is always nil.
func (a Autoscaler) Plan(t *Trace) (*Plan, error) {
	floor, ceiling := a.BaseNodes, maxFactor*a.BaseNodes
	// sized returns the smallest group within [floor, ceiling] that
	// serves rps at utilization at most upFraction, or the ceiling.
	sized := func(rps float64) int {
		n := floor
		for n < ceiling && float64(n)*nodeRPS*upFraction < rps {
			n++
		}
		return n
	}

	// rpsAt is t.RPSAt for ascending minutes: a forward cursor over the
	// points in place of a binary search per minute.
	pts, i := t.Points, 0
	rpsAt := func(m int64) float64 {
		for i+1 < len(pts) && pts[i+1].Minute <= m {
			i++
		}
		return pts[i].RPS
	}

	cur := sized(rpsAt(t.Start))
	plan := &Plan{Start: t.Start, End: t.End, Steps: []TargetStep{{Minute: t.Start, Target: cur}}}
	lastChange := t.Start
	for m := t.Start + 1; m < t.End; m++ {
		rps := rpsAt(m)
		capacity := float64(cur) * nodeRPS
		want := cur
		switch {
		case rps > capacity*upFraction:
			// Over the band: grow immediately to regain headroom.
			want = sized(rps)
		case rps < capacity*downFraction && m-lastChange >= holdMinutes:
			// Under the band and out of cooldown: shrink, but only to a
			// size that would not itself be over the band.
			want = sized(rps)
			if want >= cur {
				want = cur
			}
		}
		if want != cur {
			cur = want
			lastChange = m
			plan.Steps = append(plan.Steps, TargetStep{Minute: m, Target: cur})
		}
	}
	return plan, nil
}
