// Storage cluster: run the erasure-code based distributed storage
// service (RS-Paxos, θ(3,5)) on a simulated 5-node group: writes store
// one coded shard per replica instead of full copies, reads reconstruct
// from any 3 shards, and instance rotation re-encodes data onto the new
// membership.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/simnet"
	"repro/internal/storage"
)

func main() {
	net := simnet.New(11)
	members := []simnet.NodeID{"az-a", "az-b", "az-c", "az-d", "az-e"}
	svc, err := storage.New(net, members, 3) // θ(3,5)
	if err != nil {
		log.Fatal(err)
	}

	// Write objects: each replica stores only its θ(3,5) shard.
	objects := []struct {
		key   string
		value []byte
	}{
		{"users/1", []byte(`{"name":"ada","role":"admin"}`)},
		{"users/2", []byte(`{"name":"grace","role":"dev"}`)},
		{"blobs/42", bytes.Repeat([]byte("spot-market-data "), 40)},
	}
	for _, o := range objects {
		if err := svc.Put(o.key, o.value); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("put %-10s (%d bytes)\n", o.key, len(o.value))
	}

	// Reads gather any 3 shards and reconstruct.
	v, found, err := svc.Get("blobs/42")
	if err != nil || !found {
		log.Fatalf("get: %v %v", found, err)
	}
	fmt.Printf("get blobs/42: %d bytes, matches=%v\n", len(v), bytes.Equal(v, objects[2].value))

	// θ(3,5) tolerates one node failure (paper §5.1.2).
	net.Crash("az-c")
	fmt.Println("crashed az-c (1 of 5 — the RS-Paxos tolerance)")
	v, found, err = svc.Get("users/1")
	if err != nil || !found {
		log.Fatalf("get with 1 down: %v %v", found, err)
	}
	fmt.Printf("get users/1 with 1 down: %s\n", v)

	// Rotation: the bidding framework swaps two instances; Rotate
	// reconfigures the Paxos group and re-encodes every key onto the
	// new view before the old instances retire.
	net.Restart("az-c")
	if err := svc.Rotate([]simnet.NodeID{"az-f", "az-g"}, []simnet.NodeID{"az-a", "az-b"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rotated az-a, az-b out; az-f, az-g in (rebalanced)")

	for _, o := range objects {
		got, found, err := svc.Get(o.key)
		if err != nil || !found || !bytes.Equal(got, o.value) {
			log.Fatalf("post-rotation get %s: found=%v err=%v", o.key, found, err)
		}
	}
	fmt.Println("all objects intact after rotation")

	if err := svc.Delete("users/2"); err != nil {
		log.Fatal(err)
	}
	_, found, err = svc.Get("users/2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("users/2 after delete: found=%v\n", found)

	delivered, dropped := net.Stats()
	fmt.Printf("simulated network: %d messages delivered, %d dropped\n", delivered, dropped)
}
