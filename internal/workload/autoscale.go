package workload

import "fmt"

// Autoscaler maps a request-rate trace to a target group-size plan.
// Scale-up is immediate (a flash crowd must be met head-on); scale-
// down waits out a hold period after the last change, the classic
// cooldown hysteresis that keeps an oscillating load from flapping
// the group size.
type Autoscaler struct {
	// NodeRPS is one node's serving capacity in requests/sec.
	NodeRPS float64
	// MinNodes and MaxNodes clamp the target (MinNodes also seeds the
	// initial size). MaxNodes <= 0 means unclamped above.
	MinNodes, MaxNodes int
	// UpFraction is the utilization above which the group grows, and
	// the headroom target the grown size is chosen for (default 0.75).
	UpFraction float64
	// DownFraction is the utilization below which the group may
	// shrink, strictly less than UpFraction (default 0.45) — the gap
	// between the two is the hysteresis band.
	DownFraction float64
	// HoldMinutes is the scale-down cooldown: no shrink within this
	// long of the previous target change (default 60).
	HoldMinutes int64
}

// DefaultAutoscaler returns the autoscaler used by the replay harness
// when a workload is supplied without explicit tuning: floor at the
// paper's deployment size, 75%/45% hysteresis band, one-hour
// scale-down cooldown, and a per-node capacity that puts the default
// generated workload's diurnal mean near baseNodes nodes.
func DefaultAutoscaler(baseNodes int) Autoscaler {
	return Autoscaler{
		NodeRPS:      1000,
		MinNodes:     baseNodes,
		MaxNodes:     3 * baseNodes,
		UpFraction:   0.75,
		DownFraction: 0.45,
		HoldMinutes:  60,
	}
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
// controller and returns the resulting target schedule. The plan is a
// pure function of the autoscaler and the trace: no randomness, so a
// seeded workload yields a deterministic plan.
func (a Autoscaler) Plan(t *Trace) (*Plan, error) {
	if a.NodeRPS <= 0 {
		return nil, fmt.Errorf("workload: autoscaler node capacity %v not positive", a.NodeRPS)
	}
	min := a.MinNodes
	if min < 1 {
		min = 1
	}
	if a.MaxNodes > 0 && a.MaxNodes < min {
		return nil, fmt.Errorf("workload: autoscaler max %d below min %d", a.MaxNodes, min)
	}
	up := a.UpFraction
	if up == 0 {
		up = 0.75
	}
	down := a.DownFraction
	if down == 0 {
		down = 0.45
	}
	if up <= 0 || up > 1 || down < 0 || down >= up {
		return nil, fmt.Errorf("workload: autoscaler thresholds down %v / up %v invalid", down, up)
	}
	hold := a.HoldMinutes
	if hold == 0 {
		hold = 60
	}

	clamp := func(n int) int {
		if n < min {
			n = min
		}
		if a.MaxNodes > 0 && n > a.MaxNodes {
			n = a.MaxNodes
		}
		return n
	}
	// sized returns the smallest group that serves rps at utilization
	// at most up.
	sized := func(rps float64) int {
		n := min
		for float64(n)*a.NodeRPS*up < rps {
			n++
			if a.MaxNodes > 0 && n >= a.MaxNodes {
				break
			}
		}
		return clamp(n)
	}

	cur := clamp(sized(t.RPSAt(t.Start)))
	plan := &Plan{Start: t.Start, End: t.End, Steps: []TargetStep{{Minute: t.Start, Target: cur}}}
	lastChange := t.Start
	for m := t.Start + 1; m < t.End; m++ {
		rps := t.RPSAt(m)
		capacity := float64(cur) * a.NodeRPS
		want := cur
		switch {
		case rps > capacity*up:
			// Over the band: grow immediately to regain headroom.
			want = sized(rps)
		case rps < capacity*down && m-lastChange >= hold:
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
