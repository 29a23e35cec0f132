package paxos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/quorum"
	"repro/internal/simnet"
)

// Nodes returns all replicas, including stopped ones.
func (c *Cluster) Nodes() map[simnet.NodeID]*Node { return c.nodes }

// logSM records applied entries for assertions.
type logSM struct {
	id      simnet.NodeID
	applied []appliedEntry
}

type appliedEntry struct {
	slot    uint64
	kind    CmdKind
	cmdID   uint64
	payload []byte
}

func (s *logSM) Apply(slot uint64, kind CmdKind, cmdID uint64, meta, payload []byte, shardIdx, viewSize int) {
	s.applied = append(s.applied, appliedEntry{slot, kind, cmdID, payload})
}

type jsonApplied struct {
	Slot    uint64  `json:"slot"`
	Kind    CmdKind `json:"kind"`
	CmdID   uint64  `json:"cmd_id"`
	Payload []byte  `json:"payload"`
}

func (s *logSM) Snapshot() []byte {
	out := make([]jsonApplied, len(s.applied))
	for i, e := range s.applied {
		out[i] = jsonApplied{e.slot, e.kind, e.cmdID, e.payload}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return data
}

func (s *logSM) Restore(snapshot []byte) {
	var in []jsonApplied
	if err := json.Unmarshal(snapshot, &in); err != nil {
		panic(err)
	}
	s.applied = s.applied[:0]
	for _, e := range in {
		s.applied = append(s.applied, appliedEntry{e.Slot, e.Kind, e.CmdID, e.Payload})
	}
}

func ids(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf("n%d", i))
	}
	return out
}

func newTestCluster(t *testing.T, n, dataShards int, seed uint64) (*Cluster, map[simnet.NodeID]*logSM) {
	t.Helper()
	net := simnet.New(seed)
	sms := map[simnet.NodeID]*logSM{}
	c := NewCluster(net, ids(n), func(id simnet.NodeID) StateMachine {
		sm := &logSM{id: id}
		sms[id] = sm
		return sm
	}, dataShards)
	return c, sms
}

func TestLeaderElection(t *testing.T) {
	c, _ := newTestCluster(t, 5, 1, 1)
	leader, err := c.WaitForLeader()
	if err != nil {
		t.Fatal(err)
	}
	if leader == nil {
		t.Fatal("no leader")
	}
	// Exactly one leader once settled.
	c.Net.Run(2000)
	count := 0
	for _, n := range c.Nodes() {
		if n.IsLeader() {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d leaders after settling", count)
	}
}

func TestProposeCommitsEverywhere(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 2)
	for i := 0; i < 10; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(20000)
	// All live nodes applied the same sequence of app commands.
	var ref []appliedEntry
	for id, sm := range sms {
		var apps []appliedEntry
		for _, e := range sm.applied {
			if e.kind == KindApp {
				apps = append(apps, e)
			}
		}
		if len(apps) != 10 {
			t.Fatalf("node %s applied %d commands, want 10", id, len(apps))
		}
		if ref == nil {
			ref = apps
			continue
		}
		for i := range apps {
			if apps[i].cmdID != ref[i].cmdID || !bytes.Equal(apps[i].payload, ref[i].payload) {
				t.Fatalf("node %s diverges at %d", id, i)
			}
		}
	}
}

func TestDedupSuppressesDoubleApply(t *testing.T) {
	c, sms := newTestCluster(t, 3, 1, 3)
	leader, err := c.WaitForLeader()
	if err != nil {
		t.Fatal(err)
	}
	cmdID := c.NextCmdID()
	// Submit the same command twice (client retry).
	leader.Submit(KindApp, cmdID, nil, []byte("once"))
	leader.Submit(KindApp, cmdID, nil, []byte("once"))
	c.Net.Run(20000)
	for id, sm := range sms {
		count := 0
		for _, e := range sm.applied {
			if e.cmdID == cmdID {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("node %s applied command %d times", id, count)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 4)
	leader, err := c.WaitForLeader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose([]byte("before")); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(leader.ID)
	// A new leader emerges and commits more commands.
	ok := c.Net.RunUntil(func() bool {
		l := c.Leader()
		return l != nil && l.ID != leader.ID
	}, 200000)
	if !ok {
		t.Fatal("no failover leader")
	}
	if _, err := c.Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(20000)
	// Every live node has both commands in order.
	for id, sm := range sms {
		if id == leader.ID {
			continue
		}
		var apps [][]byte
		for _, e := range sm.applied {
			if e.kind == KindApp {
				apps = append(apps, e.payload)
			}
		}
		if len(apps) != 2 || string(apps[0]) != "before" || string(apps[1]) != "after" {
			t.Fatalf("node %s applied %q", id, apps)
		}
	}
}

func TestMinorityCrashStillCommits(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 5)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	// Crash two non-leader followers.
	crashed := 0
	for _, n := range c.Nodes() {
		if !n.IsLeader() && crashed < 2 {
			c.Net.Crash(n.ID)
			crashed++
		}
	}
	if _, err := c.Propose([]byte("with-minority-down")); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(20000)
	liveApplied := 0
	for id, sm := range sms {
		if c.Net.Crashed(id) {
			continue
		}
		for _, e := range sm.applied {
			if string(e.payload) == "with-minority-down" {
				liveApplied++
			}
		}
	}
	if liveApplied < 3 {
		t.Fatalf("only %d live nodes applied", liveApplied)
	}
}

func TestCrashedFollowerCatchesUpOnRestart(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 6)
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
	for i := 0; i < 5; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("missed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Restart(victim)
	// Heartbeats trigger catch-up.
	ok := c.Net.RunUntil(func() bool {
		return len(appsOf(sms[victim])) >= 5
	}, 200000)
	if !ok {
		t.Fatalf("victim caught up only %d commands", len(appsOf(sms[victim])))
	}
	apps := appsOf(sms[victim])
	for i := 0; i < 5; i++ {
		if string(apps[i]) != fmt.Sprintf("missed-%d", i) {
			t.Fatalf("victim applied %q at %d", apps[i], i)
		}
	}
}

// TestLaggardCatchesUpFromAJoiner: a joiner's log starts at the
// frontier of the snapshot that bootstrapped it, so it cannot replay the
// slots below it. A follower that was down across the whole rotation and
// comes back to a group of joiners only must be brought up by snapshot,
// and still apply the full history in order.
func TestLaggardCatchesUpFromAJoiner(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 33)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	view := c.View()
	victim, survivor := view[3], view[4]
	c.Net.Crash(victim)
	for i := 0; i < 20; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("far-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	joiners := []simnet.NodeID{"j0", "j1", "j2"}
	if err := c.Rotate(joiners, view[:3], nil); err != nil {
		t.Fatal(err)
	}
	laggard := c.Nodes()[victim]
	bootstrapped := func() bool {
		for _, id := range joiners {
			if c.Nodes()[id].logStart <= laggard.frontier {
				return false
			}
		}
		return true
	}
	if !c.Net.RunUntil(bootstrapped, 200000) {
		t.Fatal("a joiner's log does not start past the laggard's frontier")
	}
	c.Net.Crash(survivor) // only joiners run now
	c.Net.Restart(victim)
	ok := c.Net.RunUntil(func() bool {
		return len(appsOf(sms[victim])) >= 20
	}, 600000)
	if !ok {
		t.Fatalf("victim applied only %d commands", len(appsOf(sms[victim])))
	}
	if laggard.logStart == 0 {
		t.Fatal("victim caught up without a snapshot")
	}
	apps := appsOf(sms[victim])
	for i := 0; i < 20; i++ {
		if string(apps[i]) != fmt.Sprintf("far-%d", i) {
			t.Fatalf("victim order broken at %d: %q", i, apps[i])
		}
	}
}

func appsOf(sm *logSM) [][]byte {
	var out [][]byte
	for _, e := range sm.applied {
		if e.kind == KindApp {
			out = append(out, e.payload)
		}
	}
	return out
}

func TestPartitionMajoritySideProgresses(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 7)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	all := ids(5)
	minority := all[:2]
	majority := all[2:]
	c.Net.Partition(majority, minority)
	// Majority side elects (or keeps) a leader and commits.
	ok := c.Net.RunUntil(func() bool {
		for _, id := range majority {
			if n := c.nodes[id]; n != nil && n.IsLeader() {
				return true
			}
		}
		return false
	}, 400000)
	if !ok {
		t.Fatal("majority side has no leader")
	}
	var mleader *Node
	for _, id := range majority {
		if c.nodes[id].IsLeader() {
			mleader = c.nodes[id]
		}
	}
	cmdID := c.NextCmdID()
	mleader.Submit(KindApp, cmdID, nil, []byte("majority-write"))
	ok = c.Net.RunUntil(func() bool {
		n := 0
		for _, id := range majority {
			if c.nodes[id].dedup[cmdID] {
				n++
			}
		}
		return n >= 3
	}, 400000)
	if !ok {
		t.Fatal("majority write did not commit")
	}
	// Minority applied nothing.
	for _, id := range minority {
		for _, e := range sms[id].applied {
			if string(e.payload) == "majority-write" {
				t.Fatal("minority applied the write during partition")
			}
		}
	}
	// Heal: minority catches up.
	c.Net.Heal()
	ok = c.Net.RunUntil(func() bool {
		for _, id := range minority {
			if !c.nodes[id].dedup[cmdID] {
				return false
			}
		}
		return true
	}, 400000)
	if !ok {
		t.Fatal("minority did not catch up after heal")
	}
}

func TestReconfigurationAddNode(t *testing.T) {
	c, sms := newTestCluster(t, 3, 1, 8)
	if _, err := c.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	newView := append(ids(3), "n3")
	if err := c.Reconfigure(newView); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose([]byte("post")); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(50000)
	// The joiner learned the full history via snapshot + commits.
	apps := appsOf(sms["n3"])
	if len(apps) != 2 || string(apps[0]) != "pre" || string(apps[1]) != "post" {
		t.Fatalf("joiner applied %q", apps)
	}
	// Its view matches.
	if got := c.nodes["n3"].CurrentView(); len(got) != 4 {
		t.Fatalf("joiner view %v", got)
	}
}

func TestReconfigurationRotateNode(t *testing.T) {
	// The bidding framework's move: add a replacement, then remove an
	// old instance, service live throughout.
	c, sms := newTestCluster(t, 5, 1, 9)
	if _, err := c.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	// Add n5, then drop n0 (make-before-break).
	withNew := append(ids(5), "n5")
	if err := c.Reconfigure(withNew); err != nil {
		t.Fatal(err)
	}
	without := withNew[1:] // drop n0
	if err := c.Reconfigure(without); err != nil {
		t.Fatal(err)
	}
	c.StopNode("n0")
	if _, err := c.Propose([]byte("b")); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(50000)
	apps := appsOf(sms["n5"])
	if len(apps) != 2 || string(apps[0]) != "a" || string(apps[1]) != "b" {
		t.Fatalf("replacement applied %q", apps)
	}
	view := c.nodes["n5"].CurrentView()
	if len(view) != 5 {
		t.Fatalf("view size %d, want 5", len(view))
	}
	for _, id := range view {
		if id == "n0" {
			t.Fatal("n0 still in view")
		}
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	c, sms := newTestCluster(t, 5, 1, 10)
	c.Net.SetDropProbability(0.10)
	c.Net.SetLatency(1, 5)
	for i := 0; i < 5; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("lossy-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(100000)
	// At least a quorum applied everything, in identical order.
	complete := 0
	var ref [][]byte
	for _, sm := range sms {
		apps := appsOf(sm)
		if len(apps) == 5 {
			complete++
			if ref == nil {
				ref = apps
			} else {
				for i := range apps {
					if !bytes.Equal(apps[i], ref[i]) {
						t.Fatal("divergent order under loss")
					}
				}
			}
		}
	}
	if complete < 3 {
		t.Fatalf("only %d nodes fully applied", complete)
	}
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{Round: 1, Proposer: "a"}
	b := Ballot{Round: 1, Proposer: "b"}
	c := Ballot{Round: 2, Proposer: "a"}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("ballot ordering broken")
	}
	if b.Less(a) || c.Less(a) {
		t.Fatal("ballot ordering not antisymmetric")
	}
	if !(Ballot{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero broken")
	}
	if a.String() == "" {
		t.Fatal("empty ballot string")
	}
}

func TestEncodeDecodeMembers(t *testing.T) {
	in := []simnet.NodeID{"zebra", "alpha", "mid"}
	out := decodeMembers(EncodeMembers(in))
	if len(out) != 3 || out[0] != "alpha" || out[1] != "mid" || out[2] != "zebra" {
		t.Fatalf("round trip %v", out)
	}
	if decodeMembers(nil) != nil {
		t.Fatal("decode of empty payload should be nil")
	}
}

// TestNewLeaderRecoversAcceptedValue: the leader stops after a quorum
// accepted slot s but before any replica learned the commit. The value
// may have been chosen, so the next leader must commit that same value
// at s, never a no-op: whole from any acceptor's promise for m = 1, and
// rebuilt from the promised shards for m = 3.
func TestNewLeaderRecoversAcceptedValue(t *testing.T) {
	for _, m := range []int{1, 3} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, sms := newTestCluster(t, 5, m, 41)
			if _, err := c.Propose([]byte("warm-up")); err != nil {
				t.Fatal(err)
			}
			old := c.Leader()
			slot, cmdID := old.nextSlot, c.NextCmdID()
			value := []byte("the value a quorum accepted before its leader stopped")
			old.Submit(KindApp, cmdID, nil, value)
			holders := func() (accepted int, committed bool) {
				for _, n := range c.Nodes() {
					if e := n.log[slot]; e != nil && e.cmdID == cmdID {
						accepted++
						committed = committed || e.committed
					}
				}
				return accepted, committed
			}
			q := quorum.RSPaxosQuorumSize(5, m)
			c.Net.RunUntil(func() bool { a, done := holders(); return a >= q || done }, 10000)
			if a, done := holders(); a < q || done {
				t.Fatalf("fixture: %d replicas accepted slot %d, committed %v; want a quorum of %d, uncommitted", a, slot, done, q)
			}
			c.StopNode(old.ID)

			applied := func() bool {
				for id, n := range c.Nodes() {
					if id != old.ID && n.frontier <= slot {
						return false
					}
				}
				return true
			}
			if !c.Net.RunUntil(applied, 20000) {
				t.Fatalf("slot %d not applied on every live replica", slot)
			}
			if c.Leader() == nil || c.Leader() == old {
				t.Fatal("no new leader took over")
			}
			for id, sm := range sms {
				if id == old.ID {
					continue
				}
				var e *appliedEntry
				for i := range sm.applied {
					if sm.applied[i].slot == slot {
						e = &sm.applied[i]
					}
				}
				if e == nil || e.kind != KindApp || e.cmdID != cmdID || (m == 1 && !bytes.Equal(e.payload, value)) {
					t.Errorf("%s applied slot %d as %+v; want the accepted value, command %d", id, slot, e, cmdID)
				}
			}
			// Coded replicas apply their shard; the new leader holds the
			// whole value it rebuilt and re-proposed.
			if got := c.Leader().fullValues[slot]; m > 1 && !bytes.Equal(got, value) {
				t.Errorf("new leader rebuilt slot %d as %q, want %q", slot, got, value)
			}
		})
	}
}
