package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/lockservice"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/strategy"
)

// rotatingService is what the feasibility driver needs of a replicated
// service: make-before-break rotation onto fresh replicas.
type rotatingService interface {
	Rotate(add, remove []simnet.NodeID) error
}

// driveFeasibility is the §5.4 experiment in miniature, closing the
// loop between the bidding layer and the replicated service layer: the
// Jupiter framework bids against the simulated market, and its
// decisions drive a REAL Paxos-replicated service over the simulated
// network — out-of-bid terminations crash replicas, interval rotations
// run make-before-break view changes. start builds the service on the
// founding members; check asserts it is still correct after each
// interval's rotation.
func driveFeasibility(t *testing.T, env Env, spec strategy.ServiceSpec, intervals int,
	start func(net *simnet.Network, members []simnet.NodeID) rotatingService, check func(interval int)) {
	t.Helper()
	set, err := env.Traces(spec.Type)
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: env.Seed})
	provider.AdvanceTo(env.TrainWeeks * Week)
	j := core.New()
	decide := func() []strategy.Bid {
		t.Helper()
		decision, err := j.Decide(provider, spec, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(decision.Bids) < spec.DataShards {
			t.Fatalf("Jupiter fell back to on-demand (%d bids)", len(decision.Bids))
		}
		return decision.Bids
	}
	replicaOf := func(zone string) simnet.NodeID { return simnet.NodeID("replica@" + zone) }
	instances := map[string]cloud.InstanceID{}
	// launch places the bids in zones without an instance and returns
	// the replicas of those that were granted.
	launch := func(bids []strategy.Bid) []simnet.NodeID {
		var added []simnet.NodeID
		for _, b := range bids {
			if _, have := instances[b.Zone]; have {
				continue
			}
			id, err := provider.RequestSpot(b.Zone, spec.Type, b.Price)
			if err != nil {
				continue // zone skipped this interval
			}
			instances[b.Zone] = id
			added = append(added, replicaOf(b.Zone))
		}
		return added
	}

	bids := decide()
	members := launch(bids)
	if len(members) != len(bids) {
		t.Fatalf("only %d of the %d initial bids were granted", len(members), len(bids))
	}
	snet := simnet.New(env.Seed)
	svc := start(snet, members)
	for interval := 0; interval < intervals; interval++ {
		// Advance the market by one bidding interval; out-of-bid
		// terminations crash the corresponding service replicas.
		target := provider.Now() + 60
		for minute := provider.Now() + 1; minute <= target; minute++ {
			provider.AdvanceTo(minute)
			for zone, id := range instances {
				if inst, _ := provider.Instance(id); inst.State == cloud.Terminated {
					snet.Crash(replicaOf(zone))
				}
			}
		}
		// Bid for the next interval and rotate membership.
		bids := decide()
		next := map[string]bool{}
		for _, b := range bids {
			next[b.Zone] = true
		}
		add := launch(bids)
		var remove []simnet.NodeID
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
		snet.Run(100000) // settle between intervals
		check(interval)
	}
}

// TestFeasibilityEndToEnd drives the Paxos lock service: a lock taken
// before the first interval must stay held throughout, and fresh locks
// commit with mutual exclusion after every rotation.
func TestFeasibilityEndToEnd(t *testing.T) {
	var svc *lockservice.Service
	start := func(net *simnet.Network, members []simnet.NodeID) rotatingService {
		svc = lockservice.New(net, members)
		ok, seq, err := svc.Acquire("durable-client", "/anchor", 0)
		if err != nil || !ok {
			t.Fatalf("anchor acquire: ok=%v err=%v", ok, err)
		}
		if seq == 0 {
			t.Fatal("zero sequencer")
		}
		return svc
	}
	check := func(interval int) {
		if h, err := svc.Holder("/anchor"); err != nil || h != "durable-client" {
			t.Fatalf("interval %d: anchor lock lost (holder %q) (err %v)", interval, h, err)
		}
		lock := fmt.Sprintf("/interval-%d", interval)
		ok, _, err := svc.Acquire("worker", lock, 0)
		if err != nil || !ok {
			t.Fatalf("interval %d: acquire %s: ok=%v err=%v", interval, lock, ok, err)
		}
		if ok2, _, _ := svc.Acquire("intruder", lock, 0); ok2 {
			t.Fatalf("interval %d: mutual exclusion violated", interval)
		}
	}
	driveFeasibility(t, Env{Seed: 2014, TrainWeeks: 6, ReplayWeeks: 1}, LockSpec(), 6, start, check)

	// Finally the anchor releases cleanly.
	released, err := svc.Release("durable-client", "/anchor")
	if err != nil || !released {
		t.Fatalf("final release: ok=%v err=%v", released, err)
	}
}

// TestFeasibilityStorageEndToEnd drives the erasure-coded storage
// service (RS-Paxos, θ(3, n)): rotations re-encode data onto each new
// membership, every object must stay readable across the whole run, and
// new writes commit after every rotation.
func TestFeasibilityStorageEndToEnd(t *testing.T) {
	spec := StorageSpec()
	var svc *storage.Service
	objects := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := svc.Put(k, v); err != nil {
			t.Fatal(err)
		}
		objects[k] = v
	}
	start := func(net *simnet.Network, members []simnet.NodeID) rotatingService {
		var err error
		if svc, err = storage.New(net, members, spec.DataShards); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			put(fmt.Sprintf("obj-%d", i), bytes.Repeat([]byte{byte('A' + i)}, 100+i*37))
		}
		return svc
	}
	check := func(interval int) {
		for k, want := range objects {
			got, found, err := svc.Get(k)
			if err != nil || !found || !bytes.Equal(got, want) {
				t.Fatalf("interval %d: Get(%s): found=%v err=%v", interval, k, found, err)
			}
		}
		put(fmt.Sprintf("interval-%d", interval), []byte(fmt.Sprintf("written at interval %d", interval)))
	}
	driveFeasibility(t, Env{Seed: 77, TrainWeeks: 6, ReplayWeeks: 1}, spec, 4, start, check)
}
