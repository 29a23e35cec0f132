// Staged degradation (a robustness extension beyond the paper): when a
// replay is armed with a fault-injection scenario (internal/chaos), the
// harness subscribes Jupiter to the simulation event stream, and the
// framework scores per-zone health from the faults it observes. The
// stages, from healthy to critical:
//
//  1. Healthy — no recent faults; the Fig. 3 algorithm runs untouched.
//  2. Degraded — faults were observed recently: zones implicated in a
//     fault are temporarily quarantined (excluded from bidding, with a
//     seeded, exponentially backed-off re-probe time), and candidate
//     group sizes that quarantine leaves short of spot zones are padded
//     with on-demand instances. An on-demand node's failure probability
//     is fp0, which never exceeds the equalized per-node target (Decide
//     rejects targets below fp0), so a padded group still meets the
//     availability constraint of Equation 10 by construction.
//  3. Critical — heavy recent fault pressure: the decision places a
//     full quorum of the group on on-demand instances, so the service
//     survives even the loss of every spot member at once (a
//     correlated reclamation storm), at a cost still below the
//     all-on-demand baseline.
//
// Fault pressure decays exponentially, so a quiet market walks the
// framework back down the stages and eventually returns it to pure
// spot bidding. Outside chaos runs nothing subscribes the framework to
// an event stream, no fault is ever observed, and every code path here
// stays dormant — clean-run decisions are bit-identical to a build
// without this file.
package core

import (
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/stats"
)

// degradeStage is the framework's current degradation stage.
type degradeStage int

const (
	// stageHealthy runs the unmodified bidding algorithm.
	stageHealthy degradeStage = iota
	// stageDegraded quarantines faulty zones and pads short candidate
	// sets with on-demand instances.
	stageDegraded
	// stageCritical additionally places a full quorum on on-demand.
	stageCritical
)

// String implements fmt.Stringer.
func (s degradeStage) String() string {
	switch s {
	case stageDegraded:
		return "degraded"
	case stageCritical:
		return "critical"
	default:
		return "healthy"
	}
}

const (
	// healthHalfLife is how long observed fault pressure takes to halve,
	// in minutes. Two days: long enough that the second wave of a
	// multi-day incident meets an already-hardened fleet.
	healthHalfLife = 48 * 60
	// zoneQuarantineAt is the decayed per-zone fault weight at which the
	// zone is quarantined.
	zoneQuarantineAt = 1.0
	// quarantineBase and quarantineMax bound the re-probe backoff: the
	// first quarantine of a zone lasts about quarantineBase minutes,
	// doubling per repeat up to quarantineMax.
	quarantineBase = 6 * 60
	quarantineMax  = 48 * 60
	// degradedAt and criticalAt are the global fault-pressure thresholds
	// of the corresponding stages.
	degradedAt = 0.5
	criticalAt = 2.0
)

// zoneHealth is one zone's fault record.
type zoneHealth struct {
	// score is the decayed fault weight observed against the zone.
	score float64
	// until is the minute (exclusive) the current quarantine ends; the
	// zone is re-probed — offered to the bidding algorithm again — after
	// it.
	until int64
	// backoff is the length of the zone's next quarantine.
	backoff int64
}

// healthTracker accumulates observed faults into per-zone scores and a
// global pressure figure, both decaying with healthHalfLife.
type healthTracker struct {
	// rng jitters quarantine lengths so re-probes of zones felled by one
	// correlated fault do not all land on the same minute. Seeded from
	// the first observed fault, so identical fault schedules reproduce
	// identical quarantine windows.
	rng       *stats.RNG
	zones     map[string]*zoneHealth
	pressure  float64
	decayedAt int64
	faults    int
}

// newHealthTracker seeds a tracker from the first observed fault.
func newHealthTracker(first engine.Event) *healthTracker {
	h := fnv.New64a()
	h.Write([]byte(first.Zone))
	h.Write([]byte(first.Fault))
	return &healthTracker{
		rng:       stats.NewRNG(h.Sum64() ^ uint64(first.Minute) ^ 0x6a757069746572),
		zones:     make(map[string]*zoneHealth),
		decayedAt: first.Minute,
	}
}

// decayTo advances the exponential decay of all scores to now.
func (t *healthTracker) decayTo(now int64) {
	if now <= t.decayedAt {
		return
	}
	f := math.Exp2(-float64(now-t.decayedAt) / healthHalfLife)
	t.pressure *= f
	for z, zh := range t.zones {
		zh.score *= f
		if zh.score < 0.01 && now >= zh.until {
			delete(t.zones, z)
		}
	}
	t.decayedAt = now
}

// observe folds one injected fault into the scores, quarantining the
// implicated zone when its decayed weight crosses the threshold. A
// fault observed after a zone's quarantine expired — the re-probe found
// the zone still bad — quarantines it again for twice as long.
func (t *healthTracker) observe(e engine.Event) {
	if e.Kind != engine.KindFaultInjected {
		return
	}
	t.decayTo(e.Minute)
	t.faults++
	t.pressure++
	if e.Zone == "" {
		return // market-wide fault: global pressure only
	}
	zh := t.zones[e.Zone]
	if zh == nil {
		zh = &zoneHealth{}
		t.zones[e.Zone] = zh
	}
	zh.score++
	if zh.score < zoneQuarantineAt || e.Minute < zh.until {
		return
	}
	if zh.backoff == 0 {
		zh.backoff = quarantineBase
	}
	span := zh.backoff
	if jitter := zh.backoff / 4; jitter > 0 {
		span += t.rng.Int63n(2*jitter+1) - jitter
	}
	zh.until = e.Minute + span
	if zh.backoff *= 2; zh.backoff > quarantineMax {
		zh.backoff = quarantineMax
	}
}

// stage maps the decayed global pressure to a degradation stage.
func (t *healthTracker) stage(now int64) degradeStage {
	t.decayTo(now)
	switch {
	case t.pressure >= criticalAt:
		return stageCritical
	case t.pressure >= degradedAt:
		return stageDegraded
	}
	return stageHealthy
}

// quarantined reports whether a zone is currently quarantined.
func (t *healthTracker) quarantined(zone string, now int64) bool {
	t.decayTo(now)
	zh := t.zones[zone]
	return zh != nil && now < zh.until
}

// quarantinedKey reports whether a pool key is quarantined: either the
// pool itself (faults carry pool keys when a typed pool's instance
// fails) or its whole availability zone (chaos blackouts name the
// zone). For a bare-zone key both lookups coincide, so single-type
// behavior is unchanged.
func (t *healthTracker) quarantinedKey(key string, now int64) bool {
	if t.quarantined(key, now) {
		return true
	}
	if zone := market.PoolZone(key); zone != key {
		return t.quarantined(zone, now)
	}
	return false
}
