package paxos

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

func benchCluster(b *testing.B, n, m int) *Cluster {
	b.Helper()
	net := simnet.New(1)
	c := NewCluster(net, ids(n), func(id simnet.NodeID) StateMachine {
		return &logSM{id: id}
	}, m)
	if _, err := c.WaitForLeader(); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCommitReplicated measures full commit rounds (submit through
// quorum apply) for the classic replicated configuration.
func BenchmarkCommitReplicated(b *testing.B) {
	c := benchCluster(b, 5, 1)
	payload := []byte("benchmark command payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Propose(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitRSPaxos measures commit rounds for the θ(3,5) coded
// configuration, including the per-slot erasure encode.
func BenchmarkCommitRSPaxos(b *testing.B) {
	c := benchCluster(b, 5, 3)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Propose(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderElection measures cold-start elections at several
// group sizes.
func BenchmarkLeaderElection(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := simnet.New(uint64(i))
				c := NewCluster(net, ids(n), func(id simnet.NodeID) StateMachine {
					return &logSM{id: id}
				}, 1)
				if _, err := c.WaitForLeader(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
