// Package storage implements an erasure-code based distributed storage
// service (paper §5.1.2) over RS-Paxos: writes replicate a θ(m, n) coded
// value — each replica stores only its shard — through Paxos with
// enlarged quorums (ceil((n+m)/2)), and reads take the newest version
// held by a running read quorum and reconstruct it from any m shards. The standard configuration is 5 nodes with θ(3, 5),
// which tolerates one node failure.
//
// Because shards are tied to the view that accepted them, membership
// rotation (the bidding framework replacing spot instances) is followed
// by Rebalance, which re-encodes every key under the new view before the
// old instances retire — the make-before-break discipline of paper §4.
package storage

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/erasure"
	"repro/internal/paxos"
	"repro/internal/simnet"
)

// Meta encoding: one op byte then the key.
const (
	opPut    = 'P'
	opDelete = 'D'
)

// record is a replica's knowledge of one key: the latest committed
// write's shard (or full copy for snapshot-bootstrapped replicas).
type record struct {
	slot     uint64
	shardIdx int // -1 = full copy, -2 = known but shardless (needs repair)
	viewSize int
	payload  []byte
	deleted  bool
}

// kvSM is the per-replica state machine.
type kvSM struct {
	id   simnet.NodeID
	keys map[string]*record
}

func newKVSM(id simnet.NodeID) *kvSM {
	return &kvSM{id: id, keys: make(map[string]*record)}
}

// Apply implements paxos.StateMachine.
func (s *kvSM) Apply(slot uint64, kind paxos.CmdKind, cmdID uint64, meta, payload []byte, shardIdx, viewSize int) {
	if kind != paxos.KindApp || len(meta) == 0 {
		return
	}
	op, key := meta[0], string(meta[1:])
	prev := s.keys[key]
	if prev != nil && prev.slot >= slot {
		return // stale re-apply
	}
	switch op {
	case opPut:
		rec := &record{slot: slot, shardIdx: shardIdx, viewSize: viewSize, payload: payload}
		if payload == nil {
			rec.shardIdx = -2 // joined after the write; needs rebalance
		}
		s.keys[key] = rec
	case opDelete:
		s.keys[key] = &record{slot: slot, deleted: true, shardIdx: -2}
	}
}

// jsonKV mirrors kvSM for snapshot serialization. Shard payloads are
// node-specific and never transferred: records travel as metadata and
// the service's rebalance re-encodes data for the receiver.
type jsonKV struct {
	Keys map[string]jsonRecord `json:"keys"`
}

type jsonRecord struct {
	Slot    uint64 `json:"slot"`
	Deleted bool   `json:"deleted"`
	// Full carries a payload only for full-copy records (shardIdx -1),
	// which are node-independent.
	Full []byte `json:"full,omitempty"`
}

// Snapshot implements paxos.StateMachine.
func (s *kvSM) Snapshot() []byte {
	js := jsonKV{Keys: map[string]jsonRecord{}}
	for k, rec := range s.keys {
		jr := jsonRecord{Slot: rec.slot, Deleted: rec.deleted}
		if rec.shardIdx == -1 {
			jr.Full = rec.payload
		}
		js.Keys[k] = jr
	}
	data, err := json.Marshal(js)
	if err != nil {
		panic("storage: snapshot encoding: " + err.Error())
	}
	return data
}

// Restore implements paxos.StateMachine.
func (s *kvSM) Restore(snapshot []byte) {
	var js jsonKV
	if err := json.Unmarshal(snapshot, &js); err != nil {
		panic("storage: snapshot decoding: " + err.Error())
	}
	s.keys = map[string]*record{}
	for k, jr := range js.Keys {
		rec := &record{slot: jr.Slot, deleted: jr.Deleted, shardIdx: -2}
		if jr.Full != nil {
			rec.shardIdx = -1
			rec.payload = jr.Full
		}
		s.keys[k] = rec
	}
}

// Service is the client-facing storage handle.
type Service struct {
	cluster *paxos.Cluster
	sms     map[simnet.NodeID]*kvSM
	m       int
}

// New builds a storage service with θ(m, len(members)) coding.
func New(net *simnet.Network, members []simnet.NodeID, m int) (*Service, error) {
	if m < 1 || m > len(members) {
		return nil, fmt.Errorf("storage: θ(%d, %d) invalid", m, len(members))
	}
	s := &Service{sms: make(map[simnet.NodeID]*kvSM), m: m}
	s.cluster = paxos.NewCluster(net, members, func(id simnet.NodeID) paxos.StateMachine {
		sm := newKVSM(id)
		s.sms[id] = sm
		return sm
	}, m)
	return s, nil
}

// Put stores value under key, driving the network until the write is
// committed by the RS-Paxos quorum.
func (s *Service) Put(key string, value []byte) error {
	meta := append([]byte{opPut}, key...)
	_, err := s.cluster.ProposeMeta(meta, value)
	return err
}

// Delete removes a key.
func (s *Service) Delete(key string) error {
	meta := append([]byte{opDelete}, key...)
	_, err := s.cluster.ProposeMeta(meta, nil)
	return err
}

// Get reads a key from the running replicas of the current view: it
// needs a read quorum of them running, takes the newest version they
// hold and reconstructs it from their shards. It returns
// (nil, false, nil) for absent or deleted keys. A refused read returns
// at once, without running the network.
func (s *Service) Get(key string) ([]byte, bool, error) {
	nodes, err := s.cluster.ReadQuorum(func(*paxos.Node) bool { return true })
	if err != nil {
		return nil, false, fmt.Errorf("storage: %w", err)
	}
	var recs []*record
	for _, n := range nodes {
		if rec := s.sms[n.ID].keys[key]; rec != nil {
			recs = append(recs, rec)
		}
	}
	// Latest version among the running replicas wins.
	var newest *record
	for _, r := range recs {
		if newest == nil || r.slot > newest.slot {
			newest = r
		}
	}
	if newest == nil || newest.deleted {
		return nil, false, nil
	}
	shards := map[int][]byte{}
	viewSize := 0
	for _, r := range recs {
		if r.slot != newest.slot {
			continue
		}
		switch {
		case r.shardIdx >= 0:
			shards[r.shardIdx] = r.payload
			viewSize = r.viewSize
		case r.shardIdx == -1 && r.payload != nil:
			return r.payload, true, nil
		}
	}
	if len(shards) < s.m {
		return nil, false, fmt.Errorf("storage: key %q slot %d: only %d/%d shards", key, newest.slot, len(shards), s.m)
	}
	value, err := erasure.DecodeValue(s.m, viewSize, shards)
	if err != nil {
		return nil, false, err
	}
	return value, true, nil
}

// Keys lists keys known to the most caught-up member of a running read
// quorum (including shardless records awaiting repair, excluding
// deletions), in order, or fails when no read quorum runs.
func (s *Service) Keys() ([]string, error) {
	n, err := s.cluster.Freshest()
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var keys []string
	for k, rec := range s.sms[n.ID].keys {
		if !rec.deleted {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys, nil
}

// Rotate swaps members (make-before-break) and rebalances all keys onto
// the new view, while the old members still serve their shards, so
// shard placement matches current membership.
func (s *Service) Rotate(add, remove []simnet.NodeID) error {
	return s.cluster.Rotate(add, remove, s.Rebalance)
}

// Rebalance re-writes every key under the current view, restoring the
// coded layout after membership changes. Old instances must still be
// reachable while it runs (they hold the shards being read).
func (s *Service) Rebalance() error {
	keys, err := s.Keys()
	if err != nil {
		return err
	}
	for _, key := range keys {
		value, found, err := s.Get(key)
		if err != nil {
			return fmt.Errorf("storage: rebalance read %q: %w", key, err)
		}
		if !found {
			continue
		}
		if err := s.Put(key, value); err != nil {
			return fmt.Errorf("storage: rebalance write %q: %w", key, err)
		}
	}
	return nil
}
