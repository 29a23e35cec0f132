// Lock cluster: run the Chubby-like distributed lock service on a
// simulated 5-replica Paxos group, survive replica failures, and rotate
// instances the way the bidding framework does between bidding
// intervals — all while lock state stays consistent.
package main

import (
	"fmt"
	"log"

	"repro/internal/lockservice"
	"repro/internal/simnet"
)

func main() {
	net := simnet.New(7)
	members := []simnet.NodeID{"az-a", "az-b", "az-c", "az-d", "az-e"}
	svc := lockservice.New(net, members)

	// Clients take locks.
	ok, seq, err := svc.Acquire("alice", "/db/leader", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice acquires /db/leader: ok=%v sequencer=%d\n", ok, seq)

	ok, _, err = svc.Acquire("bob", "/db/leader", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob tries the held lock:   ok=%v (mutual exclusion)\n", ok)

	// Two replicas fail — the paper's tolerated worst case for a
	// 5-node majority group.
	net.Crash("az-a")
	net.Crash("az-b")
	fmt.Println("crashed az-a and az-b (2 of 5)")

	ok, _, err = svc.Acquire("bob", "/jobs/runner", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob acquires a new lock with 2 replicas down: ok=%v\n", ok)
	holder, err := svc.Holder("/db/leader")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("holder of /db/leader is still: %q\n", holder)

	// The bidding framework decided to move to fresh spot instances:
	// make-before-break rotation via Paxos view change.
	net.Restart("az-a")
	net.Restart("az-b")
	if err := svc.Rotate([]simnet.NodeID{"az-f", "az-g"}, []simnet.NodeID{"az-a", "az-b"}); err != nil {
		log.Fatal(err)
	}
	net.Run(100000)
	fmt.Println("rotated az-a, az-b out; az-f, az-g in")

	if holder, err = svc.Holder("/db/leader"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("holder of /db/leader after rotation: %q\n", holder)
	released, err := svc.Release("alice", "/db/leader")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice releases: ok=%v\n", released)

	ok, seq, err = svc.Acquire("bob", "/db/leader", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob finally acquires /db/leader: ok=%v sequencer=%d\n", ok, seq)

	delivered, dropped := net.Stats()
	fmt.Printf("simulated network: %d messages delivered, %d dropped\n", delivered, dropped)
}
