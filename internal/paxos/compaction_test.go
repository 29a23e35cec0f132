package paxos

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

func newCompactingCluster(t *testing.T, n int, seed uint64) (*Cluster, map[simnet.NodeID]*logSM) {
	t.Helper()
	net := simnet.New(seed)
	sms := map[simnet.NodeID]*logSM{}
	opts := DefaultOptions(1)
	opts.CompactEvery = 10
	opts.CompactKeepTail = 8
	c := NewCluster(net, ids(n), func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}, opts)
	return c, sms
}

func TestCompactionBoundsLogSize(t *testing.T) {
	c, _ := newCompactingCluster(t, 5, 31)
	for i := 0; i < 60; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(50000)
	for id, n := range c.Nodes() {
		if len(n.log) > 30 {
			t.Errorf("node %s retains %d log entries after compaction", id, len(n.log))
		}
		if n.compactedBelow == 0 {
			t.Errorf("node %s never compacted (frontier %d)", id, n.frontier)
		}
	}
}

func TestCompactionDoesNotBreakCommits(t *testing.T) {
	c, sms := newCompactingCluster(t, 5, 32)
	for i := 0; i < 40; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(50000)
	for id, sm := range sms {
		apps := appsOf(sm)
		if len(apps) != 40 {
			t.Fatalf("node %s applied %d commands", id, len(apps))
		}
		for i, payload := range apps {
			if string(payload) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("node %s slot order broken at %d: %q", id, i, payload)
			}
		}
	}
}

func TestLaggardCatchesUpAcrossCompaction(t *testing.T) {
	// A follower down for far longer than the compaction window must be
	// brought back via snapshot, not per-slot replay, and still apply
	// the full history in order.
	c, sms := newCompactingCluster(t, 5, 33)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	var victim simnet.NodeID
	for _, n := range c.Nodes() {
		if !n.IsLeader() {
			victim = n.ID
			break
		}
	}
	c.Net.Crash(victim)
	for i := 0; i < 50; i++ { // >> CompactEvery + tail
		if _, err := c.Propose([]byte(fmt.Sprintf("far-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every live node has compacted well past the victim's frontier.
	for id, n := range c.Nodes() {
		if id == victim {
			continue
		}
		if n.compactedBelow == 0 {
			t.Fatalf("node %s did not compact", id)
		}
	}
	c.Net.Restart(victim)
	ok := c.Net.RunUntil(func() bool {
		return len(appsOf(sms[victim])) >= 50
	}, 600000)
	if !ok {
		t.Fatalf("victim applied only %d commands", len(appsOf(sms[victim])))
	}
	apps := appsOf(sms[victim])
	for i := 0; i < 50; i++ {
		if string(apps[i]) != fmt.Sprintf("far-%d", i) {
			t.Fatalf("victim order broken at %d: %q", i, apps[i])
		}
	}
}

func TestCompactionWithFailover(t *testing.T) {
	c, sms := newCompactingCluster(t, 5, 34)
	leader, err := c.WaitForLeader()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Crash(leader.ID)
	ok := c.Net.RunUntil(func() bool {
		l := c.Leader()
		return l != nil && l.ID != leader.ID
	}, 400000)
	if !ok {
		t.Fatal("no failover")
	}
	for i := 0; i < 25; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(100000)
	for id, sm := range sms {
		if id == leader.ID {
			continue
		}
		apps := appsOf(sm)
		if len(apps) != 50 {
			t.Fatalf("node %s applied %d, want 50", id, len(apps))
		}
	}
}
