package smc

import "fmt"

// Stationary returns the long-run time-average price occupancy of the
// learned chain as a Forecast, suitable for month-scale failure
// estimates where the per-minute propagation horizon would be
// impractical: the occupancy of state i is proportional to π_i·μ_i,
// where π is the stationary distribution of the embedded jump chain and
// μ_i the mean sojourn of state i. Absorbing states (never observed
// departing) restart the chain from the overall destination marginal,
// which keeps the iteration well-defined without biasing busy states.
// The first call computes it, and every call on any goroutine returns
// that one immutable Forecast (or error).
func (m *Model) Stationary() (*Forecast, error) {
	m.stationaryOnce.Do(func() { m.stationary, m.stationaryErr = m.computeStationary() })
	return m.stationary, m.stationaryErr
}

func (m *Model) computeStationary() (*Forecast, error) {
	n := len(m.prices)
	if n == 0 {
		return nil, fmt.Errorf("smc: empty model")
	}
	if n == 1 {
		return newForecast(m.prices, stateDist{1}, 0), nil
	}
	// Embedded transition matrix and mean sojourns.
	P := make([]stateDist, n)
	mu := make([]float64, n)
	// Global destination marginal, for absorbing-state restarts.
	restart := make(stateDist, n)
	var totalOut float64
	for i := 0; i < n; i++ {
		sd := &m.soj[i]
		P[i] = make(stateDist, n)
		if sd.absorbing {
			mu[i] = 1
			continue
		}
		for x, k := range sd.durations {
			mu[i] += float64(k) * sd.pmf[x]
		}
		if mu[i] <= 0 {
			mu[i] = 1
		}
		copy(P[i], sd.marginal)
		for j, g := range sd.marginal {
			restart[j] += g * float64(m.out[i])
			totalOut += g * float64(m.out[i])
		}
	}
	if totalOut > 0 {
		for j := range restart {
			restart[j] /= totalOut
		}
	}
	for i := 0; i < n; i++ {
		if m.soj[i].absorbing {
			copy(P[i], restart)
		}
	}
	// Power iteration for the embedded stationary distribution.
	pi := make(stateDist, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make(stateDist, n)
	for iter := 0; iter < 1000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j, p := range P[i] {
				next[j] += pi[i] * p
			}
		}
		diff := 0.0
		var sum float64
		for j := range next {
			sum += next[j]
		}
		if sum <= 0 {
			return nil, fmt.Errorf("smc: embedded chain degenerated")
		}
		for j := range next {
			next[j] /= sum
			d := next[j] - pi[j]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		copy(pi, next)
		if diff < 1e-12 {
			break
		}
	}
	// Time-average occupancy: weight by mean sojourn.
	occ := make(stateDist, n)
	var norm float64
	for i := range occ {
		occ[i] = pi[i] * mu[i]
		norm += occ[i]
	}
	if norm <= 0 {
		return nil, fmt.Errorf("smc: zero total occupancy")
	}
	for i := range occ {
		occ[i] /= norm
	}
	return newForecast(m.prices, occ, 0), nil
}
