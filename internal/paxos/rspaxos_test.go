package paxos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/erasure"
	"repro/internal/simnet"
)

// shardSM stores this replica's shards per slot, mimicking the storage
// service's per-node footprint.
type shardSM struct {
	id     simnet.NodeID
	shards map[uint64]shardRecord
}

type shardRecord struct {
	payload  []byte
	shardIdx int
	viewSize int
	cmdID    uint64
}

func newShardSM(id simnet.NodeID) *shardSM {
	return &shardSM{id: id, shards: map[uint64]shardRecord{}}
}

func (s *shardSM) Apply(slot uint64, kind CmdKind, cmdID uint64, meta, payload []byte, shardIdx, viewSize int) {
	if kind != KindApp {
		return
	}
	s.shards[slot] = shardRecord{payload: payload, shardIdx: shardIdx, viewSize: viewSize, cmdID: cmdID}
}

// Snapshot/Restore: shard payloads are node-specific, so only metadata
// transfers (mirroring the storage service's contract).
func (s *shardSM) Snapshot() []byte {
	type rec struct {
		Slot     uint64 `json:"slot"`
		CmdID    uint64 `json:"cmd_id"`
		ViewSize int    `json:"view_size"`
	}
	var out []rec
	for slot, r := range s.shards {
		out = append(out, rec{slot, r.cmdID, r.viewSize})
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return data
}

func (s *shardSM) Restore(snapshot []byte) {
	type rec struct {
		Slot     uint64 `json:"slot"`
		CmdID    uint64 `json:"cmd_id"`
		ViewSize int    `json:"view_size"`
	}
	var in []rec
	if err := json.Unmarshal(snapshot, &in); err != nil {
		panic(err)
	}
	s.shards = map[uint64]shardRecord{}
	for _, r := range in {
		s.shards[r.Slot] = shardRecord{shardIdx: -2, viewSize: r.ViewSize, cmdID: r.CmdID}
	}
}

func newCodedCluster(t *testing.T, n, m int, seed uint64) (*Cluster, map[simnet.NodeID]*shardSM) {
	t.Helper()
	net := simnet.New(seed)
	sms := map[simnet.NodeID]*shardSM{}
	c := NewCluster(net, ids(n), func(id simnet.NodeID) StateMachine {
		sm := newShardSM(id)
		sms[id] = sm
		return sm
	}, m)
	return c, sms
}

// reconstructSlot reassembles a committed value from the replicas'
// stored shards, as the storage service's Get path does.
func reconstructSlot(t *testing.T, sms map[simnet.NodeID]*shardSM, slot uint64, m int) []byte {
	t.Helper()
	shards := map[int][]byte{}
	viewSize := 0
	for _, sm := range sms {
		if rec, ok := sm.shards[slot]; ok && rec.shardIdx >= 0 {
			shards[rec.shardIdx] = rec.payload
			viewSize = rec.viewSize
		}
	}
	if len(shards) < m {
		t.Fatalf("slot %d: only %d shards stored", slot, len(shards))
	}
	full, err := erasure.DecodeValue(m, viewSize, shards)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func TestRSPaxosCommitStoresShards(t *testing.T) {
	c, sms := newCodedCluster(t, 5, 3, 11)
	value := []byte("erasure coded value: the quick brown fox")
	if _, err := c.Propose(value); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(50000)
	// Find the slot that holds the value.
	var slot uint64
	found := false
	for _, sm := range sms {
		for s := range sm.shards {
			slot, found = s, true
		}
	}
	if !found {
		t.Fatal("no shards stored")
	}
	// Each replica stores a *different* shard, all smaller than the
	// full framed value (the RS-Paxos bandwidth saving).
	seen := map[int]bool{}
	for id, sm := range sms {
		rec, ok := sm.shards[slot]
		if !ok {
			continue
		}
		if seen[rec.shardIdx] {
			t.Fatalf("duplicate shard index %d", rec.shardIdx)
		}
		seen[rec.shardIdx] = true
		if len(rec.payload) >= len(value)+8 {
			t.Fatalf("node %s stores %d bytes, full copy is %d", id, len(rec.payload), len(value)+8)
		}
	}
	if len(seen) < 4 { // write quorum for θ(3,5)
		t.Fatalf("only %d distinct shards stored", len(seen))
	}
	// Reconstruction from any m shards recovers the value.
	if got := reconstructSlot(t, sms, slot, 3); !bytes.Equal(got, value) {
		t.Fatalf("reconstructed %q, want %q", got, value)
	}
}

func TestRSPaxosQuorumIsLarger(t *testing.T) {
	// θ(3,5) needs 4 acceptors: with two nodes down, writes must not
	// commit even though a majority (3) is alive.
	c, _ := newCodedCluster(t, 5, 3, 12)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, n := range c.Nodes() {
		if !n.IsLeader() && crashed < 2 {
			c.Net.Crash(n.ID)
			crashed++
		}
	}
	cmdID := c.NextCmdID()
	c.Leader().Submit(KindApp, cmdID, nil, []byte("should-stall"))
	// Run a generous budget; the command must NOT commit anywhere.
	c.Net.Run(100000)
	for _, n := range c.Nodes() {
		if n.dedup[cmdID] {
			t.Fatal("write committed with only 3/5 acceptors (needs 4)")
		}
	}
}

func TestRSPaxosOneFailureTolerated(t *testing.T) {
	c, sms := newCodedCluster(t, 5, 3, 13)
	if _, err := c.WaitForLeader(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if !n.IsLeader() {
			c.Net.Crash(n.ID)
			break
		}
	}
	value := []byte("survives one failure")
	if _, err := c.Propose(value); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(50000)
	var slot uint64
	found := false
	for _, sm := range sms {
		for s := range sm.shards {
			slot, found = s, true
		}
	}
	if !found {
		t.Fatal("value not committed with 4/5 alive")
	}
	if got := reconstructSlot(t, sms, slot, 3); !bytes.Equal(got, value) {
		t.Fatalf("reconstructed %q", got)
	}
}

func TestRSPaxosLeaderFailoverRecoversValue(t *testing.T) {
	// A committed coded value must survive leader failover: the new
	// leader reconstructs it from shards during recovery.
	c, sms := newCodedCluster(t, 5, 3, 14)
	leader, err := c.WaitForLeader()
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("committed before failover")
	if _, err := c.Propose(value); err != nil {
		t.Fatal(err)
	}
	c.Net.Crash(leader.ID)
	ok := c.Net.RunUntil(func() bool {
		l := c.Leader()
		return l != nil && l.ID != leader.ID
	}, 400000)
	if !ok {
		t.Fatal("no failover")
	}
	after := []byte("committed after failover")
	if _, err := c.Propose(after); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(100000)
	// Both values reconstructible from live replicas' shards.
	delete(sms, leader.ID)
	var slots []uint64
	slotSet := map[uint64]bool{}
	for _, sm := range sms {
		for s := range sm.shards {
			if !slotSet[s] {
				slotSet[s] = true
				slots = append(slots, s)
			}
		}
	}
	values := map[string]bool{}
	for _, s := range slots {
		values[string(reconstructSlot(t, sms, s, 3))] = true
	}
	if !values[string(value)] {
		t.Fatal("pre-failover value lost")
	}
	if !values[string(after)] {
		t.Fatal("post-failover value lost")
	}
}

func TestRSPaxosCrashedReplicaGathersShardsOnReturn(t *testing.T) {
	c, sms := newCodedCluster(t, 5, 3, 15)
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
	value := []byte("written while victim down")
	if _, err := c.Propose(value); err != nil {
		t.Fatal(err)
	}
	c.Net.Restart(victim)
	ok := c.Net.RunUntil(func() bool {
		return len(sms[victim].shards) >= 1
	}, 400000)
	if !ok {
		t.Fatal("victim never recovered the missed shard")
	}
	// The victim's recovered shard participates in reconstruction.
	var slot uint64
	for s := range sms[victim].shards {
		slot = s
	}
	only := map[simnet.NodeID]*shardSM{victim: sms[victim]}
	// Reconstruction needs m shards; grab two more from other replicas.
	added := 0
	for id, sm := range sms {
		if id == victim || added == 2 {
			continue
		}
		if _, okk := sm.shards[slot]; okk {
			only[id] = sm
			added++
		}
	}
	if got := reconstructSlot(t, only, slot, 3); !bytes.Equal(got, value) {
		t.Fatalf("reconstructed %q with recovered shard", got)
	}
}

func TestRSPaxosManyValues(t *testing.T) {
	c, sms := newCodedCluster(t, 5, 3, 16)
	want := map[string]bool{}
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("value-%d-%s", i, bytes.Repeat([]byte("x"), i*7))
		want[v] = true
		if _, err := c.Propose([]byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.Run(100000)
	slotSet := map[uint64]bool{}
	for _, sm := range sms {
		for s := range sm.shards {
			slotSet[s] = true
		}
	}
	got := map[string]bool{}
	for s := range slotSet {
		got[string(reconstructSlot(t, sms, s, 3))] = true
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("value %q not reconstructible", v)
		}
	}
}
