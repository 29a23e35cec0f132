package paxos

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/erasure"
	"repro/internal/quorum"
	"repro/internal/simnet"
)

// StateMachine consumes committed log entries in slot order. For coded
// groups (DataShards > 1) the payload of a KindApp entry is this node's
// shard of the value, identified by shardIdx within a view of viewSize
// members; payload may be nil when the node holds no shard for the slot
// (it joined after the write — see the storage service's rebalance).
// For DataShards == 1 the payload is always the full value.
type StateMachine interface {
	Apply(slot uint64, kind CmdKind, cmdID uint64, meta, payload []byte, shardIdx, viewSize int)
	// Snapshot serializes the machine's state at the current apply
	// frontier; Restore replaces the state with a previously captured
	// snapshot. For coded groups, node-specific shard payloads must
	// not be transferred verbatim — encode metadata and let the
	// service's rebalance repair placement (see internal/storage).
	Snapshot() []byte
	Restore(snapshot []byte)
}

// Timing in simnet ticks: the local timer resolution, the leader's
// heartbeat period, and the minimum silence before campaigning (each
// node adds a stable stagger to avoid duels).
const (
	tickEvery           = 10
	heartbeatEvery      = 20
	electionTimeoutBase = 100
)

// entry is one log slot as stored at this node.
type entry struct {
	ballot    Ballot
	kind      CmdKind
	cmdID     uint64
	meta      []byte // uncoded command metadata, replicated in full
	payload   []byte // full value or this node's shard
	shardIdx  int
	committed bool
}

// proposal is leader-side bookkeeping with the full value, allowing
// shard re-encodes for catch-up and retransmission to unacked members.
type proposal struct {
	slot     uint64
	kind     CmdKind
	cmdID    uint64
	meta     []byte
	full     []byte
	acks     map[simnet.NodeID]bool
	lastSent int64
}

// Node is one Paxos replica.
type Node struct {
	ID         simnet.NodeID
	net        *simnet.Network
	sm         StateMachine
	dataShards int // m of the θ(m, n) value code; 1 is full copies

	views    []viewEpoch
	promised Ballot
	log      map[uint64]*entry
	// applyFrontierSlot: every slot below it is committed and applied.
	frontier uint64

	// Leadership: ballot is this node's latest campaign, won the one
	// whose phase 1 it won; it leads while won is still what it promised.
	won                 Ballot
	ballot              Ballot
	promises            map[simnet.NodeID]*promiseMsg
	campaignAt          uint64 // FromSlot of the in-flight campaign
	proposals           map[uint64]*proposal
	nextSlot            uint64
	pending             []submitMsg
	reconfigPendingSlot uint64 // nonzero while a reconfig is uncommitted
	leaderHint          simnet.NodeID

	lastHeartbeat int64
	lastTickSent  int64
	stopped       bool

	// logStart is the first slot this replica's log can serve: the
	// slots below it arrived inside an installed snapshot, never as
	// log entries (0 until a snapshot is installed).
	logStart uint64

	// fullValues retains full payloads of committed coded slots when
	// known (proposer or reconstructor), for serving catch-up.
	fullValues map[uint64][]byte

	dedup map[uint64]bool

	// shard reassembly state for recovery: slot -> shardIdx -> payload.
	gather       map[uint64]map[int][]byte
	gatherBallot map[uint64]Ballot
}

// NewNode creates a replica with the given initial view and registers it
// on the network. All members of a group must share the initial view.
// dataShards is m of the θ(m, n) value code; 1 is full copies.
func NewNode(id simnet.NodeID, members []simnet.NodeID, net *simnet.Network, sm StateMachine, dataShards int) *Node {
	if dataShards < 1 {
		panic("paxos: dataShards must be >= 1")
	}
	ms := append([]simnet.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	n := &Node{
		ID:           id,
		net:          net,
		sm:           sm,
		dataShards:   dataShards,
		views:        []viewEpoch{{FromSlot: 0, Members: ms}},
		log:          make(map[uint64]*entry),
		proposals:    make(map[uint64]*proposal),
		fullValues:   make(map[uint64][]byte),
		dedup:        make(map[uint64]bool),
		gather:       make(map[uint64]map[int][]byte),
		gatherBallot: make(map[uint64]Ballot),
	}
	n.lastHeartbeat = net.Now() // grant a full election timeout at birth
	net.Register(id, n.receive)
	net.OnRestart(id, n.restart)
	n.scheduleTick()
	return n
}

// Stop removes the node from further participation (used when an
// instance is terminated).
func (n *Node) Stop() { n.stopped = true }

// restart runs when the node comes back from a crash: its promises and
// log persist, but it forgets the leadership and the campaign it had,
// and waits a full election timeout before campaigning.
func (n *Node) restart() {
	n.won = Ballot{}
	n.promises = nil
	n.lastHeartbeat = n.net.Now()
}

// --- views and quorums ---

func (n *Node) viewAt(slot uint64) []simnet.NodeID {
	v := n.views[0].Members
	for _, e := range n.views {
		if e.FromSlot <= slot {
			v = e.Members
		} else {
			break
		}
	}
	return v
}

// CurrentView returns the membership for the next new slot.
func (n *Node) CurrentView() []simnet.NodeID {
	return append([]simnet.NodeID(nil), n.viewAt(^uint64(0))...)
}

func indexOf(view []simnet.NodeID, id simnet.NodeID) int {
	for i, m := range view {
		if m == id {
			return i
		}
	}
	return -1
}

// InView reports whether the node belongs to the current view.
func (n *Node) InView() bool {
	return indexOf(n.CurrentView(), n.ID) >= 0
}

// IsLeader reports current leadership belief: the node won phase 1 of
// the highest ballot it has promised.
func (n *Node) IsLeader() bool { return !n.stopped && !n.won.IsZero() && n.won == n.promised }

// --- timers ---

func (n *Node) scheduleTick() {
	// The timer is unowned so the chain survives crashes (an owned
	// timer firing while its node is crashed is dropped and never
	// rescheduled); crash state is checked explicitly instead.
	n.net.After(tickEvery, "", func() {
		if n.stopped {
			return
		}
		if !n.net.Crashed(n.ID) {
			n.tick()
		}
		n.scheduleTick()
	})
}

// electionTimeout staggers candidates by their position in the view.
func (n *Node) electionTimeout() int64 {
	idx := indexOf(n.CurrentView(), n.ID)
	if idx < 0 {
		idx = 0
	}
	return electionTimeoutBase + int64(idx)*heartbeatEvery
}

func (n *Node) tick() {
	now := n.net.Now()
	if n.IsLeader() {
		if now-n.lastTickSent >= heartbeatEvery {
			n.lastTickSent = now
			hb := heartbeatMsg{Ballot: n.ballot, Committed: n.frontier}
			for _, m := range n.CurrentView() {
				if m != n.ID {
					n.net.Send(n.ID, m, hb)
				}
			}
			// Retransmit accepts for proposals that lost messages —
			// without this a single dropped accept wedges the slot.
			for _, slot := range sortedKeys(n.proposals) {
				if p := n.proposals[slot]; now-p.lastSent >= 2*heartbeatEvery {
					n.sendAccepts(p)
				}
			}
		}
		return
	}
	if !n.InView() {
		return
	}
	if now-n.lastHeartbeat >= n.electionTimeout() {
		n.lastHeartbeat = now // back off before retrying
		n.campaign()
	}
}

// --- campaigning ---

func (n *Node) campaign() {
	round := n.promised.Round
	if n.ballot.Round > round {
		round = n.ballot.Round
	}
	n.ballot = Ballot{Round: round + 1, Proposer: n.ID}
	n.promises = make(map[simnet.NodeID]*promiseMsg)
	n.campaignAt = n.frontier
	msg := prepareMsg{Ballot: n.ballot, FromSlot: n.campaignAt}
	for _, m := range n.viewAt(n.campaignAt) {
		if m == n.ID {
			// Local state transitions do not cross the (lossy) network.
			n.onPrepare(n.ID, msg)
			continue
		}
		n.net.Send(n.ID, m, msg)
	}
}

func (n *Node) onPrepare(from simnet.NodeID, p prepareMsg) {
	if p.Ballot.Less(n.promised) {
		n.net.Send(n.ID, from, rejectMsg{Ballot: n.promised})
		return
	}
	if p.FromSlot < n.logStart && from != n.ID {
		// The campaigner is behind the slots our log holds (we joined
		// from a snapshot): bring it up with a snapshot; it will
		// re-campaign from its new frontier.
		n.sendSnapshot(from)
		n.net.Send(n.ID, from, rejectMsg{Ballot: p.Ballot})
		return
	}
	n.promised = p.Ballot
	if from != n.ID {
		n.leaderHint = from
		n.lastHeartbeat = n.net.Now()
	}
	var accepted []slotValue
	for slot, e := range n.log {
		if slot >= p.FromSlot && !e.ballot.IsZero() {
			accepted = append(accepted, slotValue{
				Slot: slot, Ballot: e.ballot, Kind: e.kind, CmdID: e.cmdID,
				Meta: e.meta, Payload: e.payload, ShardIdx: e.shardIdx,
			})
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i].Slot < accepted[j].Slot })
	pm := promiseMsg{
		Ballot: p.Ballot, From: n.ID, FromSlot: p.FromSlot,
		Accepted: accepted, Committed: n.frontier,
	}
	if from == n.ID {
		n.onPromise(pm)
		return
	}
	n.net.Send(n.ID, from, pm)
}

func (n *Node) onPromise(pm promiseMsg) {
	if pm.Ballot != n.ballot || n.won == n.ballot || n.promises == nil {
		return
	}
	n.promises[pm.From] = &pm
	view := n.viewAt(n.campaignAt)
	if len(n.promises) < quorum.RSPaxosQuorumSize(len(view), n.dataShards) {
		return
	}
	// Won the election.
	n.won = n.ballot
	n.leaderHint = n.ID
	n.recoverSlots()
	n.flushPending()
}

// recoverSlots re-proposes every slot reported in promises, choosing the
// highest-ballot value; coded values are reconstructed from shards when
// at least m agree, and unreconstructible slots become no-ops (safe: a
// value with fewer than m shards visible to a full read quorum was never
// committed).
func (n *Node) recoverSlots() {
	type slotInfo struct {
		ballot Ballot
		kind   CmdKind
		cmdID  uint64
		meta   []byte
		full   []byte
		shards map[int][]byte
	}
	// Two passes: first find the highest-ballot value per slot, then
	// gather shards by value identity (cmdID) across ballots — a value
	// re-proposed at a higher ballot by a failed leader is the same
	// value, and its older-ballot shards still reconstruct it.
	info := map[uint64]*slotInfo{}
	maxSlot := n.frontier
	from := sortedKeys(n.promises)
	for _, id := range from {
		pm := n.promises[id]
		for _, sv := range pm.Accepted {
			si := info[sv.Slot]
			if si == nil || si.ballot.Less(sv.Ballot) {
				keep := map[int][]byte{}
				if si != nil && si.cmdID == sv.CmdID {
					keep = si.shards
				}
				info[sv.Slot] = &slotInfo{ballot: sv.Ballot, kind: sv.Kind, cmdID: sv.CmdID, meta: sv.Meta, shards: keep}
			}
			if sv.Slot+1 > maxSlot {
				maxSlot = sv.Slot + 1
			}
		}
	}
	for _, id := range from {
		for _, sv := range n.promises[id].Accepted {
			si := info[sv.Slot]
			if si == nil || sv.CmdID != si.cmdID || sv.Kind != si.kind {
				continue
			}
			if sv.Kind != KindApp || n.dataShards == 1 {
				if sv.Payload != nil {
					si.full = sv.Payload
				}
			} else if sv.Payload != nil && sv.ShardIdx >= 0 {
				si.shards[sv.ShardIdx] = sv.Payload
			}
		}
	}
	n.nextSlot = maxSlot
	for _, s := range sortedKeys(info) {
		if s < n.frontier {
			continue // already applied locally
		}
		si := info[s]
		full := si.full
		kind := si.kind
		if full == nil && si.kind == KindApp && n.dataShards > 1 {
			full, _ = erasure.DecodeValue(n.dataShards, len(n.viewAt(s)), si.shards)
		}
		if full == nil && kind == KindApp {
			kind = KindNoop
		}
		n.proposeSlot(s, kind, si.cmdID, si.meta, full)
	}
	// Fill any holes below nextSlot with no-ops so the log advances.
	for s := n.frontier; s < n.nextSlot; s++ {
		if _, ok := n.proposals[s]; !ok {
			if e, ok := n.log[s]; ok && e.committed {
				continue
			}
			if _, seen := info[s]; !seen {
				n.proposeSlot(s, KindNoop, 0, nil, nil)
			}
		}
	}
}

// --- proposing ---

// Submit hands a client command to this node. Non-leaders forward to
// the last known leader; with none known the command queues until a
// leader emerges.
func (n *Node) Submit(kind CmdKind, cmdID uint64, meta, payload []byte) {
	if n.stopped {
		return
	}
	msg := submitMsg{Kind: kind, CmdID: cmdID, Meta: meta, Payload: payload}
	if n.IsLeader() {
		n.handleSubmit(msg)
		return
	}
	if n.leaderHint != "" && n.leaderHint != n.ID {
		n.net.Send(n.ID, n.leaderHint, msg)
		return
	}
	n.pending = append(n.pending, msg)
}

func (n *Node) handleSubmit(msg submitMsg) {
	if !n.IsLeader() {
		n.pending = append(n.pending, msg)
		return
	}
	if n.dedup[msg.CmdID] && msg.CmdID != 0 {
		return
	}
	if n.reconfigPendingSlot != 0 {
		// Barrier: hold everything behind an uncommitted reconfig.
		n.pending = append(n.pending, msg)
		return
	}
	slot := n.nextSlot
	n.nextSlot++
	if msg.Kind == KindReconfig {
		n.reconfigPendingSlot = slot
	}
	n.proposeSlot(slot, msg.Kind, msg.CmdID, msg.Meta, msg.Payload)
}

func (n *Node) flushPending() {
	queued := n.pending
	n.pending = nil
	for _, msg := range queued {
		if n.IsLeader() {
			n.handleSubmit(msg)
		} else {
			n.Submit(msg.Kind, msg.CmdID, msg.Meta, msg.Payload)
		}
	}
}

// proposeSlot runs phase 2 for one slot under the current ballot.
func (n *Node) proposeSlot(slot uint64, kind CmdKind, cmdID uint64, meta, full []byte) {
	p := &proposal{slot: slot, kind: kind, cmdID: cmdID, meta: meta, full: full, acks: map[simnet.NodeID]bool{}}
	n.proposals[slot] = p
	n.sendAccepts(p)
}

// sendAccepts (re)transmits phase 2a to every view member that has not
// acked the proposal yet.
func (n *Node) sendAccepts(p *proposal) {
	view := n.viewAt(p.slot)
	p.lastSent = n.net.Now()
	// A view smaller than m cannot hold the code: the value goes whole.
	var shards [][]byte
	if p.kind == KindApp && n.dataShards > 1 {
		shards, _ = erasure.EncodeValue(n.dataShards, len(view), p.full)
	}
	for i, m := range view {
		if p.acks[m] {
			continue
		}
		payload, shardIdx := p.full, -1
		if shards != nil {
			payload, shardIdx = shards[i], i
		}
		msg := acceptMsg{
			Ballot: n.ballot, Slot: p.slot, Kind: p.kind, CmdID: p.cmdID,
			Meta: p.meta, Payload: payload, ShardIdx: shardIdx,
		}
		if m == n.ID {
			// The leader's own accept is a local write, not a network
			// message: it must never be lost or the slot wedges.
			n.onAccept(n.ID, msg)
			continue
		}
		n.net.Send(n.ID, m, msg)
	}
}

// --- accepting ---

func (n *Node) onAccept(from simnet.NodeID, a acceptMsg) {
	if a.Ballot.Less(n.promised) {
		n.net.Send(n.ID, from, rejectMsg{Ballot: n.promised, Slot: a.Slot})
		return
	}
	n.promised = a.Ballot
	if from != n.ID {
		n.leaderHint = from
		n.lastHeartbeat = n.net.Now()
	}
	e := n.log[a.Slot]
	if e != nil && e.committed {
		// Already decided; re-ack so the proposer can commit.
		ack := acceptedMsg{Ballot: a.Ballot, Slot: a.Slot, From: n.ID}
		if from == n.ID {
			n.onAccepted(ack)
			return
		}
		n.net.Send(n.ID, from, ack)
		return
	}
	n.log[a.Slot] = &entry{
		ballot: a.Ballot, kind: a.Kind, cmdID: a.CmdID,
		meta: a.Meta, payload: a.Payload, shardIdx: a.ShardIdx,
	}
	ack := acceptedMsg{Ballot: a.Ballot, Slot: a.Slot, From: n.ID}
	if from == n.ID {
		n.onAccepted(ack)
		return
	}
	n.net.Send(n.ID, from, ack)
}

func (n *Node) onAccepted(am acceptedMsg) {
	if !n.IsLeader() || am.Ballot != n.ballot {
		return
	}
	p, ok := n.proposals[am.Slot]
	if !ok {
		return
	}
	p.acks[am.From] = true
	view := n.viewAt(am.Slot)
	if len(p.acks) < quorum.RSPaxosQuorumSize(len(view), n.dataShards) {
		return
	}
	delete(n.proposals, am.Slot)
	if p.kind == KindApp && n.dataShards > 1 && p.full != nil {
		n.fullValues[am.Slot] = p.full
	}
	cm := commitMsg{Ballot: n.ballot, Slot: am.Slot}
	for _, m := range view {
		if m != n.ID {
			n.net.Send(n.ID, m, cm)
		}
	}
	n.markCommitted(am.Slot, n.ballot)
}

func (n *Node) onCommit(from simnet.NodeID, cm commitMsg) {
	e := n.log[cm.Slot]
	if e == nil || e.ballot.Less(cm.Ballot) {
		// Missed the accept; ask the committer for the range.
		n.net.Send(n.ID, from, catchupRequestMsg{From: cm.Slot, To: cm.Slot + 1})
		return
	}
	n.markCommitted(cm.Slot, e.ballot)
}

func (n *Node) markCommitted(slot uint64, ballot Ballot) {
	e := n.log[slot]
	if e == nil {
		return
	}
	e.committed = true
	e.ballot = ballot
	n.applyFrontier()
}

func (n *Node) applyFrontier() {
	for {
		e, ok := n.log[n.frontier]
		if !ok || !e.committed {
			break
		}
		slot := n.frontier
		n.frontier++
		n.applyEntry(slot, e)
	}
}

func (n *Node) applyEntry(slot uint64, e *entry) {
	view := n.viewAt(slot)
	switch e.kind {
	case KindReconfig:
		members := decodeMembers(e.payload)
		fresh := !n.dedup[e.cmdID]
		// Mark applied before applyReconfig sends joiner snapshots, so
		// the dedup set they inherit covers this very command.
		n.dedup[e.cmdID] = true
		n.applyReconfig(slot, members)
		if fresh {
			n.sm.Apply(slot, e.kind, e.cmdID, e.meta, e.payload, e.shardIdx, len(view))
		}
	case KindApp:
		if e.cmdID != 0 && n.dedup[e.cmdID] {
			return
		}
		if e.cmdID != 0 {
			n.dedup[e.cmdID] = true
		}
		n.sm.Apply(slot, e.kind, e.cmdID, e.meta, e.payload, e.shardIdx, len(view))
	case KindNoop:
		// nothing
	}
}

func (n *Node) applyReconfig(slot uint64, members []simnet.NodeID) {
	ms := append([]simnet.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	old := n.CurrentView()
	dup := false
	for _, ve := range n.views {
		if ve.FromSlot == slot+1 {
			dup = true // epoch already adopted from a snapshot
			break
		}
	}
	if !dup {
		n.views = append(n.views, viewEpoch{FromSlot: slot + 1, Members: ms})
	}
	if n.IsLeader() {
		if n.reconfigPendingSlot == slot {
			n.reconfigPendingSlot = 0
		}
		// Bootstrap members that just joined.
		for _, m := range ms {
			if indexOf(old, m) < 0 && m != n.ID {
				n.sendSnapshot(m)
			}
		}
		n.flushPending()
		if indexOf(ms, n.ID) < 0 {
			// Led ourselves out of the view.
			n.won = Ballot{}
		}
	}
}

func (n *Node) sendSnapshot(to simnet.NodeID) {
	n.net.Send(n.ID, to, snapshotMsg{
		Ballot:   n.ballot,
		Frontier: n.frontier,
		SMState:  n.sm.Snapshot(),
		Dedup:    sortedKeys(n.dedup),
		Views:    n.views,
	})
}

// onSnapshot installs a full state snapshot: the receiver's state
// machine is restored to the sender's apply frontier, superseded log
// entries are dropped, and the views and dedup set are adopted. Used to
// bootstrap joining members and to rescue laggards that fell behind the
// first slot a snapshot-installed member's log holds.
func (n *Node) onSnapshot(s snapshotMsg) {
	if s.Frontier <= n.frontier {
		return // stale or redundant
	}
	n.sm.Restore(s.SMState)
	for slot := range n.log {
		if slot < s.Frontier {
			delete(n.log, slot)
			delete(n.fullValues, slot)
		}
	}
	n.frontier = s.Frontier
	n.logStart = s.Frontier
	n.views = make([]viewEpoch, 0, len(s.Views))
	for _, ve := range s.Views {
		n.views = append(n.views, viewEpoch{FromSlot: ve.FromSlot, Members: append([]simnet.NodeID(nil), ve.Members...)})
	}
	sort.Slice(n.views, func(i, j int) bool { return n.views[i].FromSlot < n.views[j].FromSlot })
	for _, id := range s.Dedup {
		n.dedup[id] = true
	}
	// Abandon any in-flight campaign from the stale frontier.
	n.promises = nil
	n.won = Ballot{}
	n.applyFrontier()
	n.lastHeartbeat = n.net.Now()
}

// --- catch-up ---

func (n *Node) onCatchupRequest(from simnet.NodeID, req catchupRequestMsg) {
	if req.From < n.logStart {
		// The requested range predates our snapshot; serve one.
		n.sendSnapshot(from)
		return
	}
	for slot := req.From; slot < req.To && slot < n.frontier; slot++ {
		e, ok := n.log[slot]
		if !ok || !e.committed {
			continue
		}
		if e.kind == KindApp && n.dataShards > 1 {
			full, ok := n.fullValues[slot]
			if !ok {
				// We only hold our shard; the requester gathers shards
				// from the whole view instead.
				n.net.Send(n.ID, from, shardReplyMsg{
					Slot: slot, Ballot: e.ballot, Kind: e.kind, CmdID: e.cmdID,
					Meta: e.meta, ShardIdx: e.shardIdx, Payload: e.payload,
					ViewSize: len(n.viewAt(slot)), Committed: true, NeedGather: true,
				})
				continue
			}
			payload, shardIdx := n.shardOf(slot, from, full)
			n.net.Send(n.ID, from, learnMsg{Ballot: e.ballot, Slot: slot, Kind: e.kind, CmdID: e.cmdID, Meta: e.meta, Payload: payload, ShardIdx: shardIdx})
			continue
		}
		n.net.Send(n.ID, from, learnMsg{Ballot: e.ballot, Slot: slot, Kind: e.kind, CmdID: e.cmdID, Meta: e.meta, Payload: e.payload, ShardIdx: e.shardIdx})
	}
}

// onLearn installs a committed entry regardless of promise state —
// commits are final and immune to ballot races.
func (n *Node) onLearn(l learnMsg) {
	if e, ok := n.log[l.Slot]; ok && e.committed {
		return
	}
	if l.Slot < n.frontier {
		return
	}
	n.log[l.Slot] = &entry{
		ballot: l.Ballot, kind: l.Kind, cmdID: l.CmdID,
		meta: l.Meta, payload: l.Payload, shardIdx: l.ShardIdx, committed: true,
	}
	n.applyFrontier()
}

// shardRequestMsg asks a peer for its shard of a committed slot.
type shardRequestMsg struct {
	Slot uint64
}

// shardReplyMsg returns a peer's stored shard for a slot.
type shardReplyMsg struct {
	Slot       uint64
	Ballot     Ballot
	Kind       CmdKind
	CmdID      uint64
	Meta       []byte
	ShardIdx   int
	Payload    []byte
	ViewSize   int
	Committed  bool
	NeedGather bool // sender lacked the full value; requester must gather
}

func (n *Node) onShardRequest(from simnet.NodeID, req shardRequestMsg) {
	e, ok := n.log[req.Slot]
	if !ok || !e.committed {
		return
	}
	n.net.Send(n.ID, from, shardReplyMsg{
		Slot: req.Slot, Ballot: e.ballot, Kind: e.kind, CmdID: e.cmdID,
		Meta: e.meta, ShardIdx: e.shardIdx, Payload: e.payload,
		ViewSize: len(n.viewAt(req.Slot)), Committed: true,
	})
}

func (n *Node) onShardReply(r shardReplyMsg) {
	if r.NeedGather {
		// Kick off a gather across the slot's view.
		if _, ok := n.gather[r.Slot]; !ok {
			n.gather[r.Slot] = map[int][]byte{}
			for _, m := range n.viewAt(r.Slot) {
				if m != n.ID {
					n.net.Send(n.ID, m, shardRequestMsg{Slot: r.Slot})
				}
			}
		}
	}
	if e, ok := n.log[r.Slot]; ok && e.committed {
		return // resolved meanwhile
	}
	g, ok := n.gather[r.Slot]
	if !ok {
		g = map[int][]byte{}
		n.gather[r.Slot] = g
	}
	if r.Payload != nil && r.ShardIdx >= 0 {
		if n.gatherBallot[r.Slot].Less(r.Ballot) {
			n.gatherBallot[r.Slot] = r.Ballot
		}
		// Shards of a committed slot all carry the same value (commits
		// are unique per slot), so they combine across ballots.
		g[r.ShardIdx] = r.Payload
	}
	if len(g) >= n.dataShards {
		full, err := erasure.DecodeValue(n.dataShards, r.ViewSize, g)
		if err == nil {
			payload, shardIdx := n.shardOf(r.Slot, n.ID, full)
			n.log[r.Slot] = &entry{
				ballot: n.gatherBallot[r.Slot], kind: r.Kind, cmdID: r.CmdID,
				meta: r.Meta, payload: payload, shardIdx: shardIdx, committed: true,
			}
			delete(n.gather, r.Slot)
			delete(n.gatherBallot, r.Slot)
			n.applyFrontier()
		}
	}
}

// shardOf re-encodes a committed coded value under the slot's view and
// returns member's shard and its index, or the full value and -1 when
// member is outside that view or the view cannot hold the code.
func (n *Node) shardOf(slot uint64, member simnet.NodeID, full []byte) ([]byte, int) {
	view := n.viewAt(slot)
	idx := indexOf(view, member)
	if idx < 0 {
		return full, -1
	}
	shards, err := erasure.EncodeValue(n.dataShards, len(view), full)
	if err != nil {
		return full, -1
	}
	return shards[idx], idx
}

// --- dispatch ---

func (n *Node) receive(_ *simnet.Network, msg simnet.Message) {
	if n.stopped {
		return
	}
	switch m := msg.Payload.(type) {
	case prepareMsg:
		n.onPrepare(msg.From, m)
	case promiseMsg:
		n.onPromise(m)
	case rejectMsg:
		if n.ballot.Less(m.Ballot) {
			n.promises = nil
			if n.promised.Less(m.Ballot) {
				n.promised = m.Ballot // raise the floor for the next campaign
			}
		}
	case acceptMsg:
		n.onAccept(msg.From, m)
	case acceptedMsg:
		n.onAccepted(m)
	case commitMsg:
		n.onCommit(msg.From, m)
	case heartbeatMsg:
		n.onHeartbeat(msg.From, m)
	case catchupRequestMsg:
		n.onCatchupRequest(msg.From, m)
	case learnMsg:
		n.onLearn(m)
	case shardRequestMsg:
		n.onShardRequest(msg.From, m)
	case shardReplyMsg:
		n.onShardReply(m)
	case snapshotMsg:
		n.onSnapshot(m)
	case submitMsg:
		n.handleSubmit(m)
	}
}

func (n *Node) onHeartbeat(from simnet.NodeID, hb heartbeatMsg) {
	if hb.Ballot.Less(n.promised) {
		return
	}
	n.promised = hb.Ballot
	n.leaderHint = from
	n.lastHeartbeat = n.net.Now()
	if hb.Committed > n.frontier {
		n.net.Send(n.ID, from, catchupRequestMsg{From: n.frontier, To: hb.Committed})
	}
	// A follower with queued submissions can now forward them.
	if len(n.pending) > 0 && !n.IsLeader() {
		queued := n.pending
		n.pending = nil
		for _, m := range queued {
			n.net.Send(n.ID, from, m)
		}
	}
}

// sortedKeys returns a map's keys in ascending order, so a walk over
// the map sends the same messages for the same seed.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// --- membership encoding ---

// EncodeMembers serializes a membership list for a reconfig command.
func EncodeMembers(members []simnet.NodeID) []byte {
	ss := make([]string, len(members))
	for i, m := range members {
		ss[i] = string(m)
	}
	sort.Strings(ss)
	return []byte(strings.Join(ss, ","))
}

func decodeMembers(payload []byte) []simnet.NodeID {
	if len(payload) == 0 {
		return nil
	}
	parts := strings.Split(string(payload), ",")
	out := make([]simnet.NodeID, len(parts))
	for i, p := range parts {
		out[i] = simnet.NodeID(p)
	}
	return out
}
