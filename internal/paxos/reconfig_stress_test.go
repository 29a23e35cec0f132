package paxos

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

// TestRepeatedRotation mimics eleven weeks of hourly instance rotation
// compressed: the group rotates one member per round, many times, with
// commands interleaved, and the log must stay consistent throughout.
func TestRepeatedRotation(t *testing.T) {
	net := simnet.New(51)
	sms := map[simnet.NodeID]*logSM{}
	mk := func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}
	members := ids(5)
	c := NewCluster(net, members, mk, 1)

	current := append([]simnet.NodeID(nil), members...)
	nextID := 5
	total := 0
	for round := 0; round < 8; round++ {
		payload := []byte(fmt.Sprintf("round-%d", round))
		if _, err := c.Propose(payload); err != nil {
			t.Fatalf("round %d propose: %v", round, err)
		}
		total++
		// Rotate out the oldest member, rotate in a fresh one.
		fresh := simnet.NodeID(fmt.Sprintf("n%d", nextID))
		nextID++
		old := current[0]
		current = append(current[1:], fresh)
		if err := c.Reconfigure(current); err != nil {
			t.Fatalf("round %d reconfigure: %v", round, err)
		}
		c.StopNode(old)
		if _, err := c.Propose([]byte(fmt.Sprintf("post-rotate-%d", round))); err != nil {
			t.Fatalf("round %d post-rotate propose: %v", round, err)
		}
		total++
	}
	c.Net.Run(200000)

	// The final membership consists entirely of nodes that joined via
	// snapshot; each must hold the full applied history.
	for _, id := range current {
		apps := appsOf(sms[id])
		if len(apps) != total {
			t.Fatalf("member %s applied %d of %d commands", id, len(apps), total)
		}
	}
	// View size stayed constant at 5 across 8 rotations.
	if v := c.nodes[current[0]].CurrentView(); len(v) != 5 {
		t.Fatalf("final view size %d", len(v))
	}
}

// TestFullClusterRestart crashes every member — including the leader —
// then restarts them all: a leader must re-emerge (the tick chain must
// survive the crash) and new commands must commit.
func TestFullClusterRestart(t *testing.T) {
	net := simnet.New(53)
	sms := map[simnet.NodeID]*logSM{}
	c := NewCluster(net, ids(5), func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}, 1)
	if _, err := c.Propose([]byte("before-blackout")); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids(5) {
		net.Crash(id)
	}
	net.Run(5000) // blackout period: nothing can commit
	for _, id := range ids(5) {
		net.Restart(id)
	}
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatalf("no leader after full restart: %v", err)
	}
	if _, err := c.Propose([]byte("after-blackout")); err != nil {
		t.Fatalf("propose after full restart: %v", err)
	}
	c.Net.Run(100000)
	for id, sm := range sms {
		apps := appsOf(sm)
		if len(apps) != 2 {
			t.Fatalf("node %s applied %d commands", id, len(apps))
		}
	}
}

// TestRotationWithConcurrentFailure rotates while an unrelated member
// is crashed: the view change must still commit (4 of 6 transitional
// members reachable) and the crashed node catches up on restart.
func TestRotationWithConcurrentFailure(t *testing.T) {
	net := simnet.New(52)
	sms := map[simnet.NodeID]*logSM{}
	c := NewCluster(net, ids(5), func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}, 1)
	if _, err := c.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	// Crash a follower.
	var victim simnet.NodeID
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if !n.IsLeader() {
			victim = n.ID
			break
		}
	}
	net.Crash(victim)
	// Rotate a different member out while the victim is down.
	var out simnet.NodeID
	for _, id := range ids(5) {
		if id != victim {
			out = id
			break
		}
	}
	next := []simnet.NodeID{"n9"}
	for _, id := range ids(5) {
		if id != out {
			next = append(next, id)
		}
	}
	if err := c.Reconfigure(next); err != nil {
		t.Fatalf("reconfigure with one down: %v", err)
	}
	c.StopNode(out)
	if _, err := c.Propose([]byte("post")); err != nil {
		t.Fatal(err)
	}
	// Victim returns and catches up under the new view.
	net.Restart(victim)
	ok := net.RunUntil(func() bool {
		return len(appsOf(sms[victim])) >= 2
	}, 600000)
	if !ok {
		t.Fatalf("victim applied %d commands after restart", len(appsOf(sms[victim])))
	}
	if v := c.nodes[victim].CurrentView(); len(v) != 5 || indexOf(v, out) >= 0 {
		t.Fatalf("victim's view after catch-up: %v", v)
	}
}
