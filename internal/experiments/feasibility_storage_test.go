package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// TestFeasibilityStorageEndToEnd drives the erasure-coded storage
// service (RS-Paxos, θ(3, n)) with real Jupiter decisions: rotations
// re-encode data onto each new membership and every object must stay
// readable across the whole run.
func TestFeasibilityStorageEndToEnd(t *testing.T) {
	env := Env{Seed: 77, TrainWeeks: 6, ReplayWeeks: 1}
	set, err := env.Traces(market.M3Large)
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: env.Seed})
	provider.AdvanceTo(env.TrainWeeks * Week)

	j := core.New()
	spec := StorageSpec()

	decision, err := j.Decide(provider, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(decision.Bids) < spec.DataShards {
		t.Fatalf("only %d bids", len(decision.Bids))
	}
	replicaOf := func(zone string) simnet.NodeID {
		return simnet.NodeID("store@" + zone)
	}
	instances := map[string]cloud.InstanceID{}
	var members []simnet.NodeID
	for _, b := range decision.Bids {
		id, err := provider.RequestSpot(b.Zone, spec.Type, b.Price)
		if err != nil {
			t.Fatalf("initial bid: %v", err)
		}
		instances[b.Zone] = id
		members = append(members, replicaOf(b.Zone))
	}
	snet := simnet.New(env.Seed)
	svc, err := storage.New(snet, members, spec.DataShards)
	if err != nil {
		t.Fatal(err)
	}

	objects := map[string][]byte{}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("obj-%d", i)
		v := bytes.Repeat([]byte{byte('A' + i)}, 100+i*37)
		objects[k] = v
		if err := svc.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}

	const intervals = 4
	for interval := 0; interval < intervals; interval++ {
		provider.AdvanceTo(provider.Now() + 60)
		decision, err := j.Decide(provider, spec, 60)
		if err != nil {
			t.Fatal(err)
		}
		next := map[string]bool{}
		for _, b := range decision.Bids {
			next[b.Zone] = true
		}
		var add, remove []simnet.NodeID
		for _, b := range decision.Bids {
			if _, have := instances[b.Zone]; !have {
				id, err := provider.RequestSpot(b.Zone, spec.Type, b.Price)
				if err != nil {
					continue
				}
				instances[b.Zone] = id
				add = append(add, replicaOf(b.Zone))
			}
		}
		for zone, id := range instances {
			if !next[zone] {
				_ = provider.Terminate(id)
				remove = append(remove, replicaOf(zone))
				delete(instances, zone)
			}
		}
		if len(add) > 0 || len(remove) > 0 {
			if err := svc.Rotate(add, remove); err != nil {
				t.Fatalf("interval %d rotation: %v", interval, err)
			}
		}
		svc.Cluster().Settle(100000)
		// Every object must remain readable, and new writes commit.
		for k, want := range objects {
			got, found, err := svc.Get(k)
			if err != nil || !found || !bytes.Equal(got, want) {
				t.Fatalf("interval %d: Get(%s): found=%v err=%v", interval, k, found, err)
			}
		}
		nk := fmt.Sprintf("interval-%d", interval)
		nv := []byte(fmt.Sprintf("written at interval %d", interval))
		if err := svc.Put(nk, nv); err != nil {
			t.Fatal(err)
		}
		objects[nk] = nv
	}
}
