// Package quorum implements the availability theory the paper builds on:
// acceptance sets (Definition 1), service availability of an acceptance
// set (Equation 1), optimal availability acceptance sets (Definition 2),
// optimal vote weights w_i = log2((1-p_i)/p_i) (Equation 11) with the
// monarchy and dummy rules of Amir & Wool, majority quorums, and the
// RS-Paxos quorum whose write quorums intersect in at least m nodes.
//
// Node sets are represented as bitmasks over at most 64 nodes; the
// exact-availability evaluator enumerates subsets and is intended for the
// small universes of practical Paxos groups (n ≤ ~20).
package quorum

import (
	"fmt"
	"math"
	"math/bits"
)

// System is a quorum system's acceptance predicate over N nodes: a
// distributed service is up exactly when the set of live nodes is
// accepted. Implementations must be monotone (supersets of accepted sets
// are accepted) and intersecting (any two accepted sets share a node).
type System interface {
	// N is the universe size.
	N() int
	// Accepts reports whether the live-node bitmask forms a quorum.
	Accepts(alive uint64) bool
}

// MaxNodes bounds the universe size of all systems in this package.
const MaxNodes = 64

func checkN(n int) {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("quorum: universe size %d outside [1, %d]", n, MaxNodes))
	}
}

// Threshold is the k-of-n quorum system: any k live nodes form a quorum.
// It is a valid quorum system when 2k > n.
type Threshold struct {
	n, k int
}

// NewThreshold builds a k-of-n system. It panics unless 1 <= k <= n and
// 2k > n (the intersection property).
func NewThreshold(n, k int) Threshold {
	checkN(n)
	if k < 1 || k > n {
		panic(fmt.Sprintf("quorum: threshold %d outside [1, %d]", k, n))
	}
	if 2*k <= n {
		panic(fmt.Sprintf("quorum: %d-of-%d quorums do not intersect", k, n))
	}
	return Threshold{n: n, k: k}
}

// Majority returns the simple-majority quorum system over n nodes.
func Majority(n int) Threshold {
	return NewThreshold(n, n/2+1)
}

// RSPaxosQuorumSize returns the minimal write-quorum size for an
// RS-Paxos group of n nodes carrying a θ(m, n') code with m data chunks:
// any two write quorums must intersect in at least m nodes so a value can
// always be reconstructed, hence w >= ceil((n+m)/2).
func RSPaxosQuorumSize(n, m int) int {
	return (n + m + 1) / 2
}

// N implements System.
func (t Threshold) N() int { return t.n }

// K returns the quorum size.
func (t Threshold) K() int { return t.k }

// Accepts implements System.
func (t Threshold) Accepts(alive uint64) bool {
	return bits.OnesCount64(alive&mask(t.n)) >= t.k
}

// Weighted is a weighted-voting quorum system: a live set is accepted
// when its total weight exceeds the dead set's, with exact ties broken
// by ownership of node 0 (so a set and its complement are never both
// quorums, even when the weights split evenly). Nodes with weight zero
// are dummies.
type Weighted struct {
	weights []float64
	total   float64
}

// NewWeighted builds a weighted-voting system. It panics on empty or
// negative weights or when every weight is zero.
func NewWeighted(weights []float64) Weighted {
	checkN(len(weights))
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("quorum: weights must be finite and non-negative")
		}
		total += w
	}
	if total == 0 {
		panic("quorum: all weights zero")
	}
	return Weighted{weights: append([]float64(nil), weights...), total: total}
}

// N implements System.
func (w Weighted) N() int { return len(w.weights) }

// Accepts implements System.
func (w Weighted) Accepts(alive uint64) bool {
	// Compare the live and dead sides directly (each summed in index
	// order) so the comparison for a set and for its complement uses
	// the same two values and cannot disagree under rounding.
	var live, dead float64
	for i, wt := range w.weights {
		if alive&(1<<uint(i)) != 0 {
			live += wt
		} else {
			dead += wt
		}
	}
	if live != dead {
		return live > dead
	}
	// Exact tie: the side holding node 0 wins.
	return alive&1 != 0
}

// Explicit is a quorum system given by an explicit collection of quorums
// (bitmasks); a live set is accepted when it contains one of them.
type Explicit struct {
	n       int
	quorums []uint64
}

// N implements System.
func (e Explicit) N() int { return e.n }

// Accepts implements System.
func (e Explicit) Accepts(alive uint64) bool {
	for _, q := range e.quorums {
		if alive&q == q {
			return true
		}
	}
	return false
}

// Monarchy is the single-king quorum system: the service is up exactly
// when the king is. Optimal when every failure probability is >= 1/2
// (Amir & Wool).
func Monarchy(n, king int) Explicit {
	checkN(n)
	if king < 0 || king >= n {
		panic("quorum: king outside universe")
	}
	return Explicit{n: n, quorums: []uint64{1 << uint(king)}}
}

func mask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}
