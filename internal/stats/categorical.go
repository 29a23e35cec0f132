package stats

import "math"

// Categorical samples from a fixed discrete distribution in O(1) time
// using Walker's alias method. Construction is O(n).
type Categorical struct {
	prob  []float64 // acceptance probability for each bucket
	alias []int     // alternative outcome for each bucket
}

// NewCategorical builds an alias table from the given non-negative
// weights. Weights need not sum to one. It panics if no weight is
// positive or any weight is negative or non-finite.
func NewCategorical(weights []float64) *Categorical {
	n := len(weights)
	if n == 0 {
		panic("stats: NewCategorical with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("stats: NewCategorical requires finite non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: NewCategorical requires at least one positive weight")
	}

	c := &Categorical{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scale so the average bucket mass is 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[l] = scaled[l]
		c.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		c.prob[g] = 1
		c.alias[g] = g
	}
	for _, l := range small {
		// Only reachable through floating-point round-off.
		c.prob[l] = 1
		c.alias[l] = l
	}
	return c
}

// Sample draws an outcome index according to the weights.
func (c *Categorical) Sample(r *RNG) int {
	i := r.Intn(len(c.prob))
	if r.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}
