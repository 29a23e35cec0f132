package lockservice

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/paxos"
	"repro/internal/simnet"
)

func members(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf("replica-%d", i))
	}
	return out
}

func newService(t *testing.T, n int, seed uint64) *Service {
	t.Helper()
	net := simnet.New(seed)
	return New(net, members(n))
}

func TestAcquireRelease(t *testing.T) {
	s := newService(t, 5, 1)
	ok, seq, err := s.Acquire("alice", "/locks/db", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || seq == 0 {
		t.Fatalf("acquire: ok=%v seq=%d", ok, seq)
	}
	if h, err := s.Holder("/locks/db"); err != nil || h != "alice" {
		t.Fatalf("holder = %q (err %v)", h, err)
	}
	released, err := s.Release("alice", "/locks/db")
	if err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("release failed")
	}
	if h, err := s.Holder("/locks/db"); err != nil || h != "" {
		t.Fatalf("holder after release = %q (err %v)", h, err)
	}
}

func TestMutualExclusion(t *testing.T) {
	s := newService(t, 5, 2)
	ok, _, err := s.Acquire("alice", "/l", 0)
	if err != nil || !ok {
		t.Fatalf("alice acquire: %v %v", ok, err)
	}
	ok, _, err = s.Acquire("bob", "/l", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bob acquired a held lock")
	}
	// Release frees it for bob.
	if _, err := s.Release("alice", "/l"); err != nil {
		t.Fatal(err)
	}
	ok, _, err = s.Acquire("bob", "/l", 0)
	if err != nil || !ok {
		t.Fatalf("bob acquire after release: %v %v", ok, err)
	}
}

func TestSequencersIncrease(t *testing.T) {
	s := newService(t, 3, 3)
	_, seq1, err := s.Acquire("a", "/l", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Release("a", "/l"); err != nil {
		t.Fatal(err)
	}
	_, seq2, err := s.Acquire("b", "/l", 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("sequencer did not increase: %d then %d", seq1, seq2)
	}
}

func TestReacquireRefreshesLease(t *testing.T) {
	s := newService(t, 3, 4)
	ok, seq1, err := s.Acquire("a", "/l", 100000)
	if err != nil || !ok {
		t.Fatal("initial acquire failed")
	}
	ok, seq2, err := s.Acquire("a", "/l", 100000)
	if err != nil || !ok {
		t.Fatal("re-acquire by holder failed")
	}
	if seq1 != seq2 {
		t.Fatalf("re-acquire changed sequencer: %d -> %d", seq1, seq2)
	}
}

func TestLeaseExpiry(t *testing.T) {
	s := newService(t, 3, 5)
	ok, _, err := s.Acquire("a", "/l", 50)
	if err != nil || !ok {
		t.Fatal("acquire failed")
	}
	// Drive the clock past the lease by issuing unrelated commands.
	for i := 0; i < 5; i++ {
		if _, _, err := s.Acquire("noise", fmt.Sprintf("/other-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.cluster.Net.Now() <= 50 {
		t.Skip("virtual clock did not advance far enough")
	}
	ok, _, err = s.Acquire("b", "/l", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expired lease not reclaimed")
	}
}

func TestReleaseByNonHolderFails(t *testing.T) {
	s := newService(t, 3, 6)
	if ok, _, _ := s.Acquire("a", "/l", 0); !ok {
		t.Fatal("acquire failed")
	}
	ok, err := s.Release("b", "/l")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("non-holder release succeeded")
	}
	if h, err := s.Holder("/l"); err != nil || h != "a" {
		t.Fatalf("holder = %q after bogus release (err %v)", h, err)
	}
}

func TestReleaseUnheldFails(t *testing.T) {
	s := newService(t, 3, 7)
	ok, err := s.Release("a", "/never")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("release of unheld lock succeeded")
	}
}

func TestSurvivesTwoReplicaFailures(t *testing.T) {
	s := newService(t, 5, 8)
	if ok, _, _ := s.Acquire("a", "/l", 0); !ok {
		t.Fatal("acquire failed")
	}
	// Crash two replicas (possibly including the leader).
	crashed := 0
	for _, id := range members(5) {
		if crashed == 2 {
			break
		}
		s.cluster.Net.Crash(id)
		crashed++
	}
	// The service still operates.
	ok, _, err := s.Acquire("b", "/m", 0)
	if err != nil || !ok {
		t.Fatalf("acquire with 2 down: ok=%v err=%v", ok, err)
	}
	if h, err := s.Holder("/l"); err != nil || h != "a" {
		t.Fatalf("state lost after failures: holder=%q (err %v)", h, err)
	}
}

func TestRotationKeepsState(t *testing.T) {
	// The bidding framework's core maneuver: replace replicas between
	// bidding intervals without losing lock state.
	s := newService(t, 5, 9)
	if ok, _, _ := s.Acquire("a", "/l", 0); !ok {
		t.Fatal("acquire failed")
	}
	if err := s.Rotate([]simnet.NodeID{"fresh-0", "fresh-1"}, []simnet.NodeID{"replica-0", "replica-1"}); err != nil {
		t.Fatal(err)
	}
	s.cluster.Net.Run(100000)
	if h, err := s.Holder("/l"); err != nil || h != "a" {
		t.Fatalf("lock state lost in rotation: holder=%q (err %v)", h, err)
	}
	// New membership works for new commands.
	ok, _, err := s.Acquire("b", "/m", 0)
	if err != nil || !ok {
		t.Fatalf("post-rotation acquire: ok=%v err=%v", ok, err)
	}
	// The rotated view no longer contains the removed replicas.
	view := replicas(s.cluster)["fresh-0"].CurrentView()
	if len(view) != 5 {
		t.Fatalf("view size %d", len(view))
	}
	for _, id := range view {
		if id == "replica-0" || id == "replica-1" {
			t.Fatalf("removed replica %s still in view", id)
		}
	}
}

func TestManyLocksIndependent(t *testing.T) {
	s := newService(t, 3, 10)
	for i := 0; i < 10; i++ {
		lock := fmt.Sprintf("/locks/%d", i)
		client := fmt.Sprintf("client-%d", i%3)
		ok, _, err := s.Acquire(client, lock, 0)
		if err != nil || !ok {
			t.Fatalf("acquire %s: ok=%v err=%v", lock, ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		lock := fmt.Sprintf("/locks/%d", i)
		want := fmt.Sprintf("client-%d", i%3)
		if h, err := s.Holder(lock); err != nil || h != want {
			t.Fatalf("holder(%s) = %q, want %q (err %v)", lock, h, want, err)
		}
	}
}

// TestHolderNeedsARunningQuorum pins the read rule of the lock table: a
// minority of replicas does not answer for the lock. Five replicas
// survive two crashes; with three crashed, Holder must fail rather than
// report alice's lock as unheld.
func TestHolderNeedsARunningQuorum(t *testing.T) {
	net := simnet.New(7)
	s := New(net, members(5))
	if ok, _, err := s.Acquire("alice", "/l", 0); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	for i, id := range members(3) {
		net.Crash(id)
		h, err := s.Holder("/l")
		if i < 2 && (err != nil || h != "alice") {
			t.Fatalf("holder with %d down = %q, %v, want alice", i+1, h, err)
		}
		if i == 2 && err == nil {
			t.Fatalf("holder with 3 of 5 down = %q, want an error", h)
		}
	}
}

// TestSameSeedSameRun replays one failure-and-rotation sequence several
// times in one process: a seeded network must deliver the same number of
// messages and end with the same lock holder every time, so the layer's
// own iteration order never leaks into the run.
func TestSameSeedSameRun(t *testing.T) {
	run := func() (int64, string) {
		net := simnet.New(7)
		s := New(net, []simnet.NodeID{"az-a", "az-b", "az-c", "az-d", "az-e"})
		if ok, _, err := s.Acquire("alice", "/db/leader", 0); err != nil || !ok {
			t.Fatalf("acquire: ok=%v err=%v", ok, err)
		}
		net.Crash("az-a")
		net.Crash("az-b")
		if ok, _, err := s.Acquire("bob", "/jobs/runner", 0); err != nil || !ok {
			t.Fatalf("acquire with 2 down: ok=%v err=%v", ok, err)
		}
		net.Restart("az-a")
		net.Restart("az-b")
		if err := s.Rotate([]simnet.NodeID{"az-f", "az-g"}, []simnet.NodeID{"az-a", "az-b"}); err != nil {
			t.Fatal(err)
		}
		net.Run(100000)
		delivered, _ := net.Stats()
		h, err := s.Holder("/db/leader")
		if err != nil {
			t.Fatal(err)
		}
		return delivered, h
	}
	wantMsgs, wantHolder := run()
	for i := 1; i < 10; i++ {
		if msgs, holder := run(); msgs != wantMsgs || holder != wantHolder {
			t.Fatalf("run %d: %d messages, holder %q; run 0: %d messages, holder %q", i, msgs, holder, wantMsgs, wantHolder)
		}
	}
	if wantHolder != "alice" {
		t.Fatalf("holder %q, want alice", wantHolder)
	}
}

// TestRestartedLeaderStepsDown replays the examples/lockcluster
// sequence: a replica restarted after a crash must not claim leadership
// it held before, and over the following 2 000 events no two running
// replicas may claim it at once.
func TestRestartedLeaderStepsDown(t *testing.T) {
	net := simnet.New(7)
	ids := []simnet.NodeID{"az-a", "az-b", "az-c", "az-d", "az-e"}
	s := New(net, ids)
	if ok, _, err := s.Acquire("alice", "/db/leader", 0); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	net.Crash("az-a")
	net.Crash("az-b")
	if ok, _, err := s.Acquire("bob", "/jobs/runner", 0); err != nil || !ok {
		t.Fatalf("acquire with 2 down: ok=%v err=%v", ok, err)
	}
	for _, id := range []simnet.NodeID{"az-a", "az-b"} {
		net.Restart(id)
		if replicas(s.cluster)[id].IsLeader() {
			t.Fatalf("%s claims leadership right after its restart", id)
		}
	}
	for event := 1; event <= 2000; event++ {
		net.Step()
		var leaders []simnet.NodeID
		running := replicas(s.cluster)
		for _, id := range ids {
			if n := running[id]; n != nil && n.IsLeader() {
				leaders = append(leaders, id)
			}
		}
		if len(leaders) > 1 {
			t.Fatalf("event %d after the restarts: %v all claim leadership", event, leaders)
		}
	}
	if err := s.Rotate([]simnet.NodeID{"az-f", "az-g"}, []simnet.NodeID{"az-a", "az-b"}); err != nil {
		t.Fatal(err)
	}
	if h, err := s.Holder("/db/leader"); err != nil || h != "alice" {
		t.Fatalf("holder %q after rotation, want alice (err %v)", h, err)
	}
}

// TestSnapshotIsTheTable pins the lock table's snapshot encoding and
// that Restore rebuilds a table with the same snapshot.
func TestSnapshotIsTheTable(t *testing.T) {
	s := newSM()
	ops := []op{
		{Op: "acquire", Lock: "/a", Client: "alice", LeaseTicks: 50, Now: 10},
		{Op: "acquire", Lock: "/a", Client: "bob", Now: 12},
		{Op: "acquire", Lock: "/c", Client: "carol", Now: 14},
	}
	for i, o := range ops {
		payload, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		s.Apply(uint64(i), paxos.KindApp, uint64(i+1), nil, payload, -1, 5)
	}
	const want = `{"locks":{"/a":{"client":"alice","sequence":1,"expires":60},"/c":{"client":"carol","sequence":2,"expires":0}},` +
		`"results":{"1":{"ok":true,"sequence":1},"2":{"ok":false,"sequence":0,"holder":"alice"},"3":{"ok":true,"sequence":2}},"next_seq":2}`
	if got := string(s.Snapshot()); got != want {
		t.Fatalf("snapshot\n%s\nwant\n%s", got, want)
	}
	r := newSM()
	r.Apply(0, paxos.KindApp, 9, nil, []byte(`{"op":"acquire","lock":"/z","client":"zed","now":0}`), -1, 5)
	r.Restore(s.Snapshot())
	if got := string(r.Snapshot()); got != want {
		t.Fatalf("restored snapshot\n%s\nwant\n%s", got, want)
	}
}

// replicas returns the running members of c's current view by ID: the
// replicas a read quorum is drawn from.
func replicas(c *paxos.Cluster) map[simnet.NodeID]*paxos.Node {
	nodes := map[simnet.NodeID]*paxos.Node{}
	// ReadQuorum visits every running member of the view; its error says
	// only that fewer than a quorum of them run.
	_, _ = c.ReadQuorum(func(n *paxos.Node) bool {
		nodes[n.ID] = n
		return true
	})
	return nodes
}
