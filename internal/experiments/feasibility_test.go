package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/lockservice"
	"repro/internal/market"
	"repro/internal/simnet"
)

// TestFeasibilityEndToEnd is the §5.4 experiment in miniature, closing
// the loop between the bidding layer and the replicated service layer:
// the Jupiter framework bids against the simulated market, and its
// decisions drive a REAL Paxos-replicated lock service over the
// simulated network — out-of-bid terminations crash replicas, interval
// rotations run make-before-break view changes — while lock state must
// stay consistent throughout.
func TestFeasibilityEndToEnd(t *testing.T) {
	env := Env{Seed: 2014, TrainWeeks: 6, ReplayWeeks: 1}
	set, err := env.Traces(market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(set, cloud.Config{Seed: env.Seed})
	provider.AdvanceTo(env.TrainWeeks * Week)

	j := core.New()
	spec := LockSpec()

	// First decision establishes the founding membership.
	decision, err := j.Decide(provider, spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(decision.Bids) == 0 {
		t.Fatal("Jupiter fell back to on-demand on the first decision")
	}
	replicaOf := func(zone string) simnet.NodeID {
		return simnet.NodeID("replica@" + zone)
	}
	instances := map[string]cloud.InstanceID{}
	var members []simnet.NodeID
	for _, b := range decision.Bids {
		id, err := provider.RequestSpot(b.Zone, spec.Type, b.Price)
		if err != nil {
			t.Fatalf("initial bid %s in %s: %v", b.Price, b.Zone, err)
		}
		instances[b.Zone] = id
		members = append(members, replicaOf(b.Zone))
	}
	snet := simnet.New(env.Seed)
	svc := lockservice.New(snet, members)

	// A client takes a lock that must survive the whole run.
	ok, seq, err := svc.Acquire("durable-client", "/anchor", 0)
	if err != nil || !ok {
		t.Fatalf("anchor acquire: ok=%v err=%v", ok, err)
	}
	if seq == 0 {
		t.Fatal("zero sequencer")
	}

	const intervals = 6
	for interval := 0; interval < intervals; interval++ {
		// Advance the market by one bidding interval; out-of-bid
		// terminations crash the corresponding service replicas.
		target := provider.Now() + 60
		for minute := provider.Now() + 1; minute <= target; minute++ {
			provider.AdvanceTo(minute)
			for zone, id := range instances {
				if !provider.Alive(id) && !snet.Crashed(replicaOf(zone)) {
					inst, _ := provider.Instance(id)
					if inst.State == cloud.Terminated {
						snet.Crash(replicaOf(zone))
					}
				}
			}
		}
		// Bid for the next interval and rotate membership.
		decision, err := j.Decide(provider, spec, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(decision.Bids) == 0 {
			t.Fatal("Jupiter fell back mid-run")
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
					continue // zone skipped this interval
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

		// The service must stay correct: the anchor lock is held, and
		// fresh operations commit.
		if h := svc.Holder("/anchor"); h != "durable-client" {
			t.Fatalf("interval %d: anchor lock lost (holder %q)", interval, h)
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

	// Finally the anchor releases cleanly.
	released, err := svc.Release("durable-client", "/anchor")
	if err != nil || !released {
		t.Fatalf("final release: ok=%v err=%v", released, err)
	}
}
