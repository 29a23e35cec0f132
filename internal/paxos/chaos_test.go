package paxos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simnet"
	"repro/internal/stats"
)

// TestChaos runs the replicated log under a randomized fault schedule —
// crashes, restarts, message loss, latency jitter — and checks the one
// invariant that matters: every replica's applied prefix is consistent
// (no two replicas ever disagree on the command at a position).
func TestChaos(t *testing.T) {
	for _, seed := range []uint64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed, 1)
		})
	}
}

// TestChaosCoded runs the same schedule over the RS-Paxos configuration.
func TestChaosCoded(t *testing.T) {
	runChaos(t, 404, 3)
}

func runChaos(t *testing.T, seed uint64, dataShards int) {
	t.Helper()
	const nodes = 5
	net := simnet.New(seed)
	net.SetLatency(1, 4)
	rng := stats.NewRNG(seed ^ 0xdeadbeef)
	sms := map[simnet.NodeID]*logSM{}
	c := NewCluster(net, ids(nodes), func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}, dataShards)

	crashed := map[simnet.NodeID]bool{}
	crashedCount := 0
	maxDown := 0
	if dataShards == 1 {
		maxDown = 2 // majority quorum tolerates 2 of 5
	} else {
		maxDown = 1 // θ(3,5) tolerates 1
	}

	submitted := 0
	for round := 0; round < 30; round++ {
		// Random fault action.
		switch rng.Intn(5) {
		case 0:
			if crashedCount < maxDown {
				victim := ids(nodes)[rng.Intn(nodes)]
				if !crashed[victim] {
					net.Crash(victim)
					crashed[victim] = true
					crashedCount++
				}
			}
		case 1:
			for id := range crashed {
				net.Restart(id)
				delete(crashed, id)
				crashedCount--
				break
			}
		case 2:
			net.SetDropProbability(0.05)
		case 3:
			net.SetDropProbability(0)
		}
		// Submit a few commands; they must commit despite the chaos.
		for k := 0; k < 3; k++ {
			payload := []byte(fmt.Sprintf("chaos-%d-%d", round, k))
			if _, err := c.Propose(payload); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			submitted++
		}
	}
	// Heal everything and settle.
	net.SetDropProbability(0)
	for id := range crashed {
		net.Restart(id)
	}
	c.Net.Run(400000)

	// Invariant: applied sequences are prefix-consistent and complete
	// on at least a quorum.
	var longest []appliedEntry
	for _, sm := range sms {
		if len(sm.applied) > len(longest) {
			longest = sm.applied
		}
	}
	appCount := 0
	for _, e := range longest {
		if e.kind == KindApp {
			appCount++
		}
	}
	if appCount != submitted {
		t.Fatalf("longest replica applied %d app commands, want %d", appCount, submitted)
	}
	for id, sm := range sms {
		for i, e := range sm.applied {
			ref := longest[i]
			if e.slot != ref.slot || e.cmdID != ref.cmdID {
				t.Fatalf("node %s diverges at applied position %d (slot %d vs %d)", id, i, e.slot, ref.slot)
			}
			// Coded groups apply node-specific shards; only full-copy
			// groups must agree byte-for-byte.
			if dataShards == 1 && !bytes.Equal(e.payload, ref.payload) {
				t.Fatalf("node %s payload diverges at position %d", id, i)
			}
		}
	}
}
