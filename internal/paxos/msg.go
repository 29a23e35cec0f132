package paxos

import "repro/internal/simnet"

// CmdKind distinguishes log entry types.
type CmdKind uint8

const (
	// KindNoop fills recovered-but-unreconstructible or gap slots.
	KindNoop CmdKind = iota
	// KindApp carries an application command (possibly as a coded shard).
	KindApp
	// KindReconfig carries a membership change; always stored as a full
	// copy at every node regardless of the code geometry.
	KindReconfig
)

// prepareMsg opens phase 1 for all slots >= FromSlot.
type prepareMsg struct {
	Ballot   Ballot
	FromSlot uint64
}

// slotValue reports one accepted slot in a promise.
type slotValue struct {
	Slot   uint64
	Ballot Ballot
	Kind   CmdKind
	CmdID  uint64
	// Meta is uncoded command metadata (e.g. a storage key), replicated
	// in full at every acceptor even when the value is coded.
	Meta    []byte
	Payload []byte // full value (m = 1, reconfig) or this node's shard
	// ShardIdx is the acceptor's index in the slot's view at accept
	// time, identifying which code shard Payload is.
	ShardIdx int
}

// promiseMsg answers a prepare.
type promiseMsg struct {
	Ballot   Ballot
	From     simnet.NodeID
	FromSlot uint64
	Accepted []slotValue
	// Committed is the sender's commit frontier, letting a new leader
	// learn how far the log is already decided.
	Committed uint64
}

// rejectMsg tells a proposer its ballot lost to a higher one.
type rejectMsg struct {
	Ballot Ballot // the higher ballot observed
	Slot   uint64
}

// acceptMsg is phase 2a for one slot. Payload is the full value for
// m = 1 and reconfig entries, or the destination acceptor's shard for
// coded groups.
type acceptMsg struct {
	Ballot   Ballot
	Slot     uint64
	Kind     CmdKind
	CmdID    uint64
	Meta     []byte
	Payload  []byte
	ShardIdx int
}

// acceptedMsg is phase 2b.
type acceptedMsg struct {
	Ballot Ballot
	Slot   uint64
	From   simnet.NodeID
}

// commitMsg announces a chosen slot. Acceptors apply their stored
// payload; one that missed the accept requests catch-up.
type commitMsg struct {
	Ballot Ballot
	Slot   uint64
}

// heartbeatMsg maintains the leader lease and advertises the commit
// frontier.
type heartbeatMsg struct {
	Ballot    Ballot
	Committed uint64
}

// catchupRequestMsg asks the leader to re-send accepts+commits for slots
// in [From, To).
type catchupRequestMsg struct {
	From uint64
	To   uint64
}

// learnMsg installs an already-committed entry at a lagging replica.
// Commits are final, so learning bypasses the promise check that
// protects uncommitted slots.
type learnMsg struct {
	Slot     uint64
	Ballot   Ballot
	Kind     CmdKind
	CmdID    uint64
	Meta     []byte
	Payload  []byte
	ShardIdx int
}

// snapshotMsg carries a full state snapshot: the sender's state-machine
// state at its apply frontier, plus views and the applied-command dedup
// set. It bootstraps joining members and rescues laggards behind the
// first slot a joiner's log holds.
type snapshotMsg struct {
	Ballot   Ballot
	Frontier uint64
	SMState  []byte
	Dedup    []uint64
	Views    []viewEpoch
}

// viewEpoch records the membership active from FromSlot onward.
type viewEpoch struct {
	FromSlot uint64
	Members  []simnet.NodeID
}

// submitMsg forwards a client command to the (believed) leader.
type submitMsg struct {
	Kind    CmdKind
	CmdID   uint64
	Meta    []byte
	Payload []byte
}
