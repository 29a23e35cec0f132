// Package lockservice implements a Chubby-like distributed advisory lock
// service (paper §5.1.1) as a replicated state machine over Paxos with
// full-copy replication (m = 1). A standard deployment has 5 replicas
// and tolerates any two simultaneous failures; the bidding framework
// rotates replicas between bidding intervals via Paxos view change.
package lockservice

import (
	"encoding/json"
	"fmt"

	"repro/internal/paxos"
	"repro/internal/simnet"
)

// op is a lock command as replicated through Paxos.
type op struct {
	Op     string `json:"op"` // "acquire" | "release"
	Lock   string `json:"lock"`
	Client string `json:"client"`
	// LeaseTicks > 0 bounds the hold time in virtual ticks; 0 means
	// hold until released. Stamped by the proposer against the shared
	// virtual clock, so expiry is deterministic across replicas.
	LeaseTicks int64 `json:"lease_ticks,omitempty"`
	Now        int64 `json:"now"`
}

// holder records the current owner of a lock.
type holder struct {
	Client   string `json:"client"`
	Sequence uint64 `json:"sequence"` // Chubby-style lock sequencer, increases per grant
	Expires  int64  `json:"expires"`  // 0 = no lease
}

// result is the outcome of one command, recorded per cmdID so clients
// can read their command's verdict after it commits.
type result struct {
	OK       bool   `json:"ok"`
	Sequence uint64 `json:"sequence"`
	Holder   string `json:"holder,omitempty"`
}

// sm is the lock table state machine; one per replica, all
// deterministic replicas of each other. Its JSON encoding is its
// snapshot.
type sm struct {
	Locks   map[string]*holder `json:"locks"`
	Results map[uint64]result  `json:"results"`
	NextSeq uint64             `json:"next_seq"`
}

func newSM() *sm {
	return &sm{Locks: make(map[string]*holder), Results: make(map[uint64]result)}
}

// Apply implements paxos.StateMachine.
func (s *sm) Apply(slot uint64, kind paxos.CmdKind, cmdID uint64, meta, payload []byte, shardIdx, viewSize int) {
	if kind != paxos.KindApp {
		return
	}
	var o op
	if err := json.Unmarshal(payload, &o); err != nil {
		s.Results[cmdID] = result{OK: false}
		return
	}
	h := s.Locks[o.Lock]
	// Lazy lease expiry against the deterministic command timestamp.
	if h != nil && h.Expires != 0 && o.Now >= h.Expires {
		delete(s.Locks, o.Lock)
		h = nil
	}
	switch o.Op {
	case "acquire":
		if h != nil && h.Client != o.Client {
			s.Results[cmdID] = result{OK: false, Holder: h.Client}
			return
		}
		if h != nil && h.Client == o.Client {
			// Re-acquire refreshes the lease, keeping the sequencer.
			if o.LeaseTicks > 0 {
				h.Expires = o.Now + o.LeaseTicks
			}
			s.Results[cmdID] = result{OK: true, Sequence: h.Sequence}
			return
		}
		s.NextSeq++
		nh := &holder{Client: o.Client, Sequence: s.NextSeq}
		if o.LeaseTicks > 0 {
			nh.Expires = o.Now + o.LeaseTicks
		}
		s.Locks[o.Lock] = nh
		s.Results[cmdID] = result{OK: true, Sequence: nh.Sequence}
	case "release":
		if h == nil || h.Client != o.Client {
			curr := ""
			if h != nil {
				curr = h.Client
			}
			s.Results[cmdID] = result{OK: false, Holder: curr}
			return
		}
		delete(s.Locks, o.Lock)
		s.Results[cmdID] = result{OK: true, Sequence: h.Sequence}
	default:
		s.Results[cmdID] = result{OK: false}
	}
}

// Snapshot implements paxos.StateMachine.
func (s *sm) Snapshot() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic("lockservice: snapshot encoding: " + err.Error())
	}
	return data
}

// Restore implements paxos.StateMachine.
func (s *sm) Restore(snapshot []byte) {
	fresh := newSM()
	if err := json.Unmarshal(snapshot, fresh); err != nil {
		panic("lockservice: snapshot decoding: " + err.Error())
	}
	*s = *fresh
}

// Service is the client-facing lock service handle. Operations drive
// the simulated network until the command commits.
type Service struct {
	cluster *paxos.Cluster
	sms     map[simnet.NodeID]*sm
}

// New builds a lock service replicated across the given members.
func New(net *simnet.Network, members []simnet.NodeID) *Service {
	s := &Service{sms: make(map[simnet.NodeID]*sm)}
	s.cluster = paxos.NewCluster(net, members, func(id simnet.NodeID) paxos.StateMachine {
		m := newSM()
		s.sms[id] = m
		return m
	}, 1)
	return s
}

// Acquire attempts to take the lock for the client, optionally bounded
// by a lease in ticks. It returns the grant plus the lock sequencer.
func (s *Service) Acquire(client, lock string, leaseTicks int64) (bool, uint64, error) {
	return s.do(op{Op: "acquire", Lock: lock, Client: client, LeaseTicks: leaseTicks})
}

// Release drops the client's hold on the lock.
func (s *Service) Release(client, lock string) (bool, error) {
	ok, _, err := s.do(op{Op: "release", Lock: lock, Client: client})
	return ok, err
}

func (s *Service) do(o op) (bool, uint64, error) {
	o.Now = s.cluster.Net.Now()
	payload, err := json.Marshal(o)
	if err != nil {
		return false, 0, fmt.Errorf("lockservice: encoding op: %w", err)
	}
	cmdID, err := s.cluster.Propose(payload)
	if err != nil {
		return false, 0, err
	}
	res, err := s.lookupResult(cmdID)
	if err != nil {
		return false, 0, err
	}
	return res.OK, res.Sequence, nil
}

// lookupResult reads the command verdict from the most caught-up member
// of a running read quorum: the command is applied on a quorum, so that
// replica applied it too, and deterministic replication makes every
// replica agree.
func (s *Service) lookupResult(cmdID uint64) (result, error) {
	n, err := s.cluster.Freshest()
	if err != nil {
		return result{}, err
	}
	res, ok := s.sms[n.ID].Results[cmdID]
	if !ok {
		return result{}, fmt.Errorf("lockservice: command %d result not found", cmdID)
	}
	return res, nil
}

// Holder reports the current owner of a lock, with "" for unheld, as
// the most caught-up member of a running read quorum sees it. It fails
// when no read quorum runs.
func (s *Service) Holder(lock string) (string, error) {
	n, err := s.cluster.Freshest()
	if err != nil {
		return "", err
	}
	h := s.sms[n.ID].Locks[lock]
	if h == nil || h.Expires != 0 && s.cluster.Net.Now() >= h.Expires {
		return "", nil
	}
	return h.Client, nil
}

// Rotate performs the bidding framework's make-before-break instance
// replacement: add the new members, commit the view change, then retire
// the old instances.
func (s *Service) Rotate(add, remove []simnet.NodeID) error {
	return s.cluster.Rotate(add, remove, nil)
}
