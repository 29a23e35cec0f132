package quorum

import "math"

// OptimalWeights computes the optimal availability vote assignment for
// independent node failure probabilities p (paper §4.1, Equation 11,
// after Spasojevic & Berman and Tong & Kain, with the monarchy and dummy
// rules of Amir & Wool):
//
//   - if p_i >= 1/2 for all i, the optimal system is a monarchy with one
//     of the most reliable nodes as king;
//   - any node with p_i > 1/2 is a dummy (weight 0) when some nodes have
//     p_i < 1/2;
//   - remaining nodes get w_i = log2((1-p_i)/p_i).
//
// Perfectly reliable nodes (p_i = 0) would get infinite weight; they are
// capped so the weights stay finite while still dominating.
func OptimalWeights(p []float64) []float64 {
	n := len(p)
	if n == 0 {
		panic("quorum: OptimalWeights on empty universe")
	}
	checkProbabilities(p)
	allUnreliable := true
	for _, pi := range p {
		if pi < 0.5 {
			allUnreliable = false
			break
		}
	}
	w := make([]float64, n)
	if allUnreliable {
		// Monarchy: all weight on one of the most reliable nodes.
		king := 0
		for i, pi := range p {
			if pi < p[king] {
				king = i
			}
		}
		w[king] = 1
		return w
	}
	// Cap corresponds to p = 1e-9; reliable enough to dominate any
	// practical group without producing infinities.
	capW := math.Log2((1 - 1e-9) / 1e-9)
	for i, pi := range p {
		switch {
		case pi > 0.5:
			w[i] = 0 // dummy
		case pi == 0.5:
			w[i] = 0 // zero-information vote
		default:
			wi := math.Log2((1 - pi) / pi)
			if wi > capW {
				wi = capW
			}
			w[i] = wi
		}
	}
	return w
}

// OptimalSystem builds the optimal availability acceptance set
// (Definition 2) for the given failure probabilities: weighted voting
// with the Equation 11 weights. When every node has p >= 1/2 the
// weights are one-hot, and the weighted vote accepts exactly the sets
// that hold the king: the monarchy.
func OptimalSystem(p []float64) System {
	return NewWeighted(OptimalWeights(p))
}
