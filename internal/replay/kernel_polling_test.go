package replay

// runPolling is the original minute-by-minute replay loop, kept as the
// reference implementation: the provider steps every minute and the
// loop polls quorum status at each one. The event kernel is verified
// against it bit for bit (TestKernelsAgree); it also serves as the
// baseline in BenchmarkReplayKernel.
func (r *run) runPolling() error {
	for _, o := range r.cfg.Observers {
		r.provider.Subscribe(o)
	}
	rz := r.resize
	fleetDirty := false
	if rz != nil {
		rz.fleetChanged = func(int64) { fleetDirty = true }
	}

	// Pre-roll to the first decision point.
	r.provider.AdvanceTo(r.cfg.Start - leadMinutes)
	if rz != nil {
		if err := rz.prepareDecision(r.cfg.Start - leadMinutes); err != nil {
			return err
		}
	}
	intervalLen, err := r.decideAndLaunch()
	if err != nil {
		return err
	}

	end := r.end
	res := r.res
	nextBoundary := r.cfg.Start + intervalLen
	nextDecision := nextBoundary - leadMinutes
	boundaryPending := true // install the first fleet at Start
	intervalStart := r.cfg.Start
	intervalDown := int64(0)
	prevDown := false
	flushInterval := func(endMinute int64) {
		res.Series = append(res.Series, IntervalStats{
			StartMinute:     intervalStart,
			IntervalMinutes: endMinute - intervalStart,
			GroupSize:       len(r.fleet),
			DownMinutes:     intervalDown,
		})
		intervalStart = endMinute
		intervalDown = 0
	}
	var units []int
	quorumUnits := 0
	refreshUnits := func() {
		// Quorum is over capacity units (the node rule exactly, when
		// every member is a base-type pool of UnitsPerNode units).
		units = fleetUnits(r.fleet, r.cfg.Spec, units[:0])
		total := 0
		for _, u := range units {
			total += u
		}
		quorumUnits = r.cfg.Spec.QuorumUnits(total)
	}
	for minute := r.cfg.Start; minute < end; minute++ {
		r.provider.AdvanceTo(minute)
		if boundaryPending {
			if rz != nil {
				// A resize still in flight here (possible only when the
				// interval left no decision minute) dies with the old
				// fleet.
				if err := rz.abort(minute); err != nil {
					return err
				}
			}
			r.fleet = r.pending
			r.pending = nil
			if err := r.retire(); err != nil {
				return err
			}
			boundaryPending = false
			refreshUnits()
		}
		if rz != nil {
			// Mirror the event kernel's within-minute order: the boundary
			// decision aborts any in-flight resize first, resize actions
			// due this minute run next, and the minute's quorum status is
			// evaluated over the resulting fleet.
			if minute == nextDecision {
				if err := rz.prepareDecision(minute); err != nil {
					return err
				}
			}
			if err := rz.act(minute, nextBoundary-leadMinutes); err != nil {
				return err
			}
			if fleetDirty {
				refreshUnits()
				fleetDirty = false
			}
		}
		// Availability: a live quorum of the configured group.
		n := len(r.fleet)
		alive := 0
		aliveUnits := 0
		for i, mb := range r.fleet {
			switch {
			case mb.reqID != "" && r.provider.RequestAlive(mb.reqID):
				alive++
				aliveUnits += units[i]
			case mb.id != "" && r.provider.Alive(mb.id):
				alive++
				aliveUnits += units[i]
			}
		}
		res.TotalMinutes++
		down := n == 0 || aliveUnits < quorumUnits
		if down {
			res.DownMinutes++
			intervalDown++
		}
		if down != prevDown {
			r.emitQuorum(minute, down, alive)
			prevDown = down
		}
		// Interval machinery.
		if minute == nextDecision {
			if intervalLen, err = r.decideAndLaunch(); err != nil {
				return err
			}
		}
		if minute+1 == nextBoundary {
			flushInterval(minute + 1)
			boundaryPending = true
			nextBoundary += intervalLen
			nextDecision = nextBoundary - leadMinutes
		}
	}
	if intervalStart < end {
		flushInterval(end)
	}
	return nil
}
