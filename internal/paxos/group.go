package paxos

import (
	"fmt"
	"slices"

	"repro/internal/quorum"
	"repro/internal/simnet"
)

// Cluster drives a Paxos group over a simulated network: creating
// replicas, submitting commands, waiting for commits, and changing
// membership. It is the harness the lock and storage services build on.
type Cluster struct {
	Net        *simnet.Network
	dataShards int // m of the θ(m, n) value code; 1 is full copies
	nodes      map[simnet.NodeID]*Node
	// order lists every replica ID ever created, sorted, so scans over
	// the replicas replay the same for the same seed.
	order   []simnet.NodeID
	smMake  func(id simnet.NodeID) StateMachine
	nextCmd uint64
	// maxEvents bounds each wait loop.
	maxEvents int
}

// NewCluster builds a cluster with the given member IDs over a θ(m, n)
// value code with m = dataShards. smMake constructs each replica's state
// machine.
func NewCluster(net *simnet.Network, members []simnet.NodeID, smMake func(id simnet.NodeID) StateMachine, dataShards int) *Cluster {
	c := &Cluster{
		Net:        net,
		dataShards: dataShards,
		nodes:      make(map[simnet.NodeID]*Node),
		smMake:     smMake,
		maxEvents:  200000,
	}
	for _, id := range members {
		c.add(id, members)
	}
	return c
}

// add creates the replica id with the given initial view.
func (c *Cluster) add(id simnet.NodeID, members []simnet.NodeID) {
	c.nodes[id] = NewNode(id, members, c.Net, c.smMake(id), c.dataShards)
	i, _ := slices.BinarySearch(c.order, id)
	c.order = slices.Insert(c.order, i, id)
}

// running reports whether a replica is neither stopped nor crashed.
func (c *Cluster) running(n *Node) bool {
	return !n.stopped && !c.Net.Crashed(n.ID)
}

// Leader returns the first running replica in ID order that leads, or
// nil when none does.
func (c *Cluster) Leader() *Node {
	for _, id := range c.order {
		if n := c.nodes[id]; n.IsLeader() && c.running(n) {
			return n
		}
	}
	return nil
}

// View returns the membership as the first running replica in ID order
// sees it, or nil when no replica runs.
func (c *Cluster) View() []simnet.NodeID {
	for _, id := range c.order {
		if n := c.nodes[id]; c.running(n) {
			return n.CurrentView()
		}
	}
	return nil
}

// ReadQuorum returns the running members of the current view that
// satisfy ok, in ID order, or an error when fewer of them qualify than
// the view's quorum.RSPaxosQuorumSize under the code's m: the one rule
// every read of the group, and every wait for a commit, goes through.
func (c *Cluster) ReadQuorum(ok func(*Node) bool) ([]*Node, error) {
	view := c.View()
	if view == nil {
		return nil, fmt.Errorf("paxos: no running replica")
	}
	var nodes []*Node
	for _, id := range c.order {
		if n := c.nodes[id]; slices.Contains(view, id) && c.running(n) && ok(n) {
			nodes = append(nodes, n)
		}
	}
	if need := quorum.RSPaxosQuorumSize(len(view), c.dataShards); len(nodes) < need {
		return nil, fmt.Errorf("paxos: read quorum %d of a %d-member view not reached (%d qualify)", need, len(view), len(nodes))
	}
	return nodes, nil
}

// Freshest returns the member of a running read quorum with the highest
// apply frontier (the first in ID order on a tie), or an error when no
// read quorum runs.
func (c *Cluster) Freshest() (*Node, error) {
	nodes, err := c.ReadQuorum(func(*Node) bool { return true })
	if err != nil {
		return nil, err
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.frontier > best.frontier {
			best = n
		}
	}
	return best, nil
}

// WaitForLeader runs the network until a leader emerges.
func (c *Cluster) WaitForLeader() (*Node, error) {
	ok := c.Net.RunUntil(func() bool { return c.Leader() != nil }, c.maxEvents)
	if !ok {
		return nil, fmt.Errorf("paxos: no leader elected within event budget")
	}
	return c.Leader(), nil
}

// NextCmdID allocates a unique command ID.
func (c *Cluster) NextCmdID() uint64 {
	c.nextCmd++
	return c.nextCmd
}

// Propose submits an application command and runs the network until a
// quorum of live in-view replicas has applied it, retrying on leader
// changes. It returns the slot-independent command ID used.
func (c *Cluster) Propose(payload []byte) (uint64, error) {
	return c.ProposeMeta(nil, payload)
}

// ProposeMeta submits a command with uncoded metadata (replicated in
// full everywhere) alongside the possibly-coded payload.
func (c *Cluster) ProposeMeta(meta, payload []byte) (uint64, error) {
	cmdID := c.NextCmdID()
	return cmdID, c.proposeWithID(KindApp, cmdID, meta, payload)
}

func (c *Cluster) proposeWithID(kind CmdKind, cmdID uint64, meta, payload []byte) error {
	const attempts = 8
	for attempt := 0; attempt < attempts; attempt++ {
		target := c.Leader()
		if target == nil {
			var err error
			target, err = c.WaitForLeader()
			if err != nil {
				return err
			}
		}
		target.Submit(kind, cmdID, meta, payload)
		applied := func() bool {
			_, err := c.ReadQuorum(func(n *Node) bool { return n.dedup[cmdID] })
			return err == nil
		}
		if c.Net.RunUntil(applied, c.maxEvents/attempts) {
			return nil
		}
	}
	return fmt.Errorf("paxos: command %d not applied after %d attempts", cmdID, attempts)
}

// Reconfigure proposes a membership change to the given member set,
// creating replicas for new members, and waits until the change is
// applied by a quorum of the new view.
func (c *Cluster) Reconfigure(members []simnet.NodeID) error {
	for _, id := range members {
		if _, ok := c.nodes[id]; !ok {
			// New members start with only themselves excluded from the
			// view; they learn the real view from the leader snapshot.
			c.add(id, members)
		}
	}
	cmdID := c.NextCmdID()
	return c.proposeWithID(KindReconfig, cmdID, nil, EncodeMembers(members))
}

// Rotate replaces replicas make-before-break, the way the bidding
// framework moves a service between bidding intervals: one view change
// adds add and drops remove, then runs then (when non-nil) while the
// removed replicas still serve, and only then stops them. It refuses a
// view smaller than the code's m.
func (c *Cluster) Rotate(add, remove []simnet.NodeID, then func() error) error {
	view := c.View()
	if view == nil {
		return fmt.Errorf("paxos: no running replica")
	}
	next := slices.DeleteFunc(append(view, add...), func(id simnet.NodeID) bool {
		return slices.Contains(remove, id)
	})
	slices.Sort(next)
	next = slices.Compact(next)
	if len(next) < c.dataShards {
		return fmt.Errorf("paxos: view of %d below m=%d", len(next), c.dataShards)
	}
	if err := c.Reconfigure(next); err != nil {
		return err
	}
	if then != nil {
		if err := then(); err != nil {
			return err
		}
	}
	for _, id := range remove {
		c.StopNode(id)
	}
	return nil
}

// StopNode terminates a replica permanently (spot instance reclaimed).
func (c *Cluster) StopNode(id simnet.NodeID) {
	if n, ok := c.nodes[id]; ok {
		n.Stop()
		c.Net.Deregister(id)
	}
}
