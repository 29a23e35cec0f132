// Package simnet is a deterministic discrete-event simulated network:
// addressable nodes exchange messages with configurable latency, loss,
// partitions, and crash/restart faults, all under a virtual clock. The
// Paxos replicated state machine and the services built on it run over
// this transport, which lets 11 simulated weeks execute in milliseconds
// while preserving every ordering decision.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stats"
)

// NodeID names a network endpoint.
type NodeID string

// Message is a payload in flight between two nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Payload interface{}
}

// event is a scheduled occurrence: a message delivery or a timer firing.
type event struct {
	msg *Message
	fn  func()
	// timer events may be addressed to a node so crashes cancel them.
	owner NodeID
}

// Network is the simulated transport and virtual clock. It is not safe
// for concurrent use: all activity happens inside Step/Run. Events wait
// in an engine.Queue keyed by tick, all at one priority, so events due
// at the same tick fire in the order they were scheduled.
type Network struct {
	now   int64
	queue engine.Queue[event]
	// nodes holds each address's handler, invoked sequentially by the
	// network, so a handler needs no locking.
	nodes   map[NodeID]func(*Network, Message)
	crashed map[NodeID]bool
	// onRestart holds each node's hook for coming back from a crash.
	onRestart map[NodeID]func()
	// partition maps each node to a group; messages cross groups only
	// when partitioned is false.
	partitioned bool
	group       map[NodeID]int

	dropProb   float64
	minLatency int64
	maxLatency int64
	rng        *stats.RNG

	delivered int64
	dropped   int64
}

// New creates a network with the given seed. Default latency is exactly
// 1 tick and no loss.
func New(seed uint64) *Network {
	return &Network{
		nodes:      make(map[NodeID]func(*Network, Message)),
		crashed:    make(map[NodeID]bool),
		onRestart:  make(map[NodeID]func()),
		group:      make(map[NodeID]int),
		minLatency: 1,
		maxLatency: 1,
		rng:        stats.NewRNG(seed),
	}
}

// Now returns the virtual time in ticks.
func (n *Network) Now() int64 { return n.now }

// Register attaches a handler to an address. Re-registering replaces
// the handler (used by restarts).
func (n *Network) Register(id NodeID, h func(*Network, Message)) {
	if h == nil {
		panic("simnet: nil handler")
	}
	n.nodes[id] = h
}

// Deregister removes a node entirely, its restart hook included.
func (n *Network) Deregister(id NodeID) {
	delete(n.nodes, id)
	delete(n.crashed, id)
	delete(n.onRestart, id)
	delete(n.group, id)
}

// SetLatency sets the delivery delay range in ticks (inclusive).
func (n *Network) SetLatency(min, max int64) {
	if min < 1 || max < min {
		panic(fmt.Sprintf("simnet: bad latency range [%d, %d]", min, max))
	}
	n.minLatency, n.maxLatency = min, max
}

// SetDropProbability makes each message independently lost with
// probability p.
func (n *Network) SetDropProbability(p float64) {
	if p < 0 || p > 1 {
		panic("simnet: drop probability outside [0, 1]")
	}
	n.dropProb = p
}

// Crash makes a node silently drop all traffic and pending timers until
// Restart.
func (n *Network) Crash(id NodeID) { n.crashed[id] = true }

// Restart brings a crashed node back and runs its restart hook, if any;
// its handler state is whatever the handler kept (the handler decides
// what persisted). Restarting a node that is not crashed does nothing.
func (n *Network) Restart(id NodeID) {
	if !n.crashed[id] {
		return
	}
	delete(n.crashed, id)
	if fn := n.onRestart[id]; fn != nil {
		fn()
	}
}

// OnRestart sets the hook Restart runs when id comes back from a crash,
// replacing any earlier one. Deregister drops it.
func (n *Network) OnRestart(id NodeID, fn func()) { n.onRestart[id] = fn }

// Crashed reports whether the node is currently crashed.
func (n *Network) Crashed(id NodeID) bool { return n.crashed[id] }

// Partition splits the network into groups; messages between different
// groups are dropped until Heal. Nodes absent from any group default to
// group 0.
func (n *Network) Partition(groups ...[]NodeID) {
	n.partitioned = true
	n.group = make(map[NodeID]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.group[id] = g
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.partitioned = false
	n.group = make(map[NodeID]int)
}

func (n *Network) sameSide(a, b NodeID) bool {
	if !n.partitioned {
		return true
	}
	return n.group[a] == n.group[b]
}

// Send schedules a message for delivery. Loss, partitions, and crash
// state are evaluated at delivery time, so a partition healed before
// arrival lets late messages through.
func (n *Network) Send(from, to NodeID, payload interface{}) {
	lat := n.minLatency
	if n.maxLatency > n.minLatency {
		lat += n.rng.Int63n(n.maxLatency - n.minLatency + 1)
	}
	drop := n.dropProb > 0 && n.rng.Bool(n.dropProb)
	ev := event{msg: &Message{From: from, To: to, Payload: payload}}
	if drop {
		// Still consume queue determinism but mark as dropped by
		// clearing the message handler path at delivery.
		ev.fn = func() { n.dropped++ }
		ev.msg = nil
	}
	n.queue.Schedule(n.now+lat, 0, ev)
}

// After schedules fn to run at now+delay on behalf of owner; the timer
// is skipped if the owner is crashed when it fires. A zero owner always
// fires.
func (n *Network) After(delay int64, owner NodeID, fn func()) {
	if delay < 0 {
		panic("simnet: negative delay")
	}
	n.queue.Schedule(n.now+delay, 0, event{fn: fn, owner: owner})
}

// Step delivers the next event. It returns false when the queue is
// empty.
func (n *Network) Step() bool {
	t, ok := n.queue.PopDue(math.MaxInt64)
	if !ok {
		return false
	}
	n.now = t.Minute
	ev := t.Payload
	if ev.msg == nil { // a timer, or the tally of a message Send lost
		if ev.owner == "" || !n.crashed[ev.owner] {
			ev.fn()
		}
		return true
	}
	m := *ev.msg
	h, ok := n.nodes[m.To]
	if !ok || n.crashed[m.From] || n.crashed[m.To] || !n.sameSide(m.From, m.To) {
		n.dropped++
		return true
	}
	n.delivered++
	h(n, m)
	return true
}

// Run steps until the queue drains or maxEvents deliveries happen,
// returning the number of events processed.
func (n *Network) Run(maxEvents int) int {
	steps := 0
	for steps < maxEvents && n.Step() {
		steps++
	}
	return steps
}

// RunUntil steps until cond holds, the queue drains, or maxEvents is
// reached. It reports whether cond held when it stopped.
func (n *Network) RunUntil(cond func() bool, maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if cond() {
			return true
		}
		if !n.Step() {
			return cond()
		}
	}
	return cond()
}

// Stats reports delivered and dropped event counts.
func (n *Network) Stats() (delivered, dropped int64) {
	return n.delivered, n.dropped
}
