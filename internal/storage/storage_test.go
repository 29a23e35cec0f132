package storage

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simnet"
)

func members(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf("store-%d", i))
	}
	return out
}

func newStore(t *testing.T, n, m int, seed uint64) *Service {
	t.Helper()
	net := simnet.New(seed)
	s, err := New(net, members(n), m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardBytesStored reports the total payload bytes stored across live
// replicas — the oracle demonstrating the RS-Paxos storage saving
// versus full replication. Test-only introspection; production code
// never needs the raw byte count.
func (s *Service) shardBytesStored() int {
	total := 0
	for id, sm := range s.sms {
		if s.cluster.Net.Crashed(id) {
			continue
		}
		for _, rec := range sm.keys {
			total += len(rec.payload)
		}
	}
	return total
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, 5, 3, 1)
	value := []byte("hello erasure-coded world")
	if err := s.Put("k1", value); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !found || !bytes.Equal(got, value) {
		t.Fatalf("Get = %q, %v", got, found)
	}
}

func TestGetAbsentKey(t *testing.T) {
	s := newStore(t, 5, 3, 2)
	// Commit something so the cluster is live.
	if err := s.Put("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, found, err := s.Get("nope")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("absent key found")
	}
}

func TestOverwrite(t *testing.T) {
	s := newStore(t, 5, 3, 3)
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v2 is longer")); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("k")
	if err != nil || !found {
		t.Fatalf("Get: %v %v", found, err)
	}
	if string(got) != "v2 is longer" {
		t.Fatalf("Get = %q", got)
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, 5, 3, 4)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	_, found, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key still found")
	}
}

func TestStorageSavingVsReplication(t *testing.T) {
	// θ(3,5) stores ~5/3 of the value size across the cluster; full
	// replication stores 5x. Check the coded footprint stays below 3x.
	s := newStore(t, 5, 3, 5)
	value := bytes.Repeat([]byte("data"), 300) // 1200 bytes
	if err := s.Put("big", value); err != nil {
		t.Fatal(err)
	}
	s.cluster.Net.Run(50000)
	stored := s.shardBytesStored()
	if stored >= 3*len(value) {
		t.Fatalf("coded cluster stores %d bytes for a %d-byte value (>= 3x)", stored, len(value))
	}
	if stored < len(value) {
		t.Fatalf("cluster stores %d bytes, less than the value itself", stored)
	}
}

func TestToleratesOneFailure(t *testing.T) {
	s := newStore(t, 5, 3, 6)
	if err := s.Put("k", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	s.cluster.Net.Crash("store-2")
	got, found, err := s.Get("k")
	if err != nil || !found {
		t.Fatalf("Get with 1 down: %v %v", found, err)
	}
	if string(got) != "precious" {
		t.Fatalf("Get = %q", got)
	}
	// Writes still work with 4/5 (quorum is 4).
	if err := s.Put("k2", []byte("new")); err != nil {
		t.Fatal(err)
	}
}

// TestReadsNeedARunningQuorum pins the crash model of reads: θ(3, 5)
// serves a read or a key listing with one replica crashed and refuses
// both with two, since only four of five replicas make its read quorum.
// A refused read is refused at once: it delivers no message and leaves
// the virtual clock where it was.
func TestReadsNeedARunningQuorum(t *testing.T) {
	s := newStore(t, 5, 3, 13)
	if err := s.Put("k", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	s.cluster.Net.Crash("store-0")
	if got, found, err := s.Get("k"); err != nil || !found || string(got) != "precious" {
		t.Fatalf("Get with 1 down = %q, %v, %v", got, found, err)
	}
	if keys, err := s.Keys(); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Keys with 1 down = %v, %v", keys, err)
	}
	s.cluster.Net.Crash("store-3")
	delivered, _ := s.cluster.Net.Stats()
	now := s.cluster.Net.Now()
	if got, found, err := s.Get("k"); err == nil {
		t.Fatalf("Get with 2 down = %q, %v, want an error", got, found)
	}
	if d, _ := s.cluster.Net.Stats(); d != delivered || s.cluster.Net.Now() != now {
		t.Fatalf("refused Get delivered %d messages and advanced %d ticks, want none", d-delivered, s.cluster.Net.Now()-now)
	}
	if keys, err := s.Keys(); err == nil {
		t.Fatalf("Keys with 2 down = %v, want an error", keys)
	}
}

func TestKeysListing(t *testing.T) {
	s := newStore(t, 5, 3, 7)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("key-0"); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 4 {
		t.Fatalf("Keys() = %v, %v", keys, err)
	}
	for _, k := range keys {
		if k == "key-0" {
			t.Fatal("deleted key listed")
		}
	}
}

func TestRotateRebalancesShards(t *testing.T) {
	// The bidding framework's rotation: new instances join, data is
	// re-encoded onto the new view, old instances retire — and every
	// key stays readable afterwards.
	s := newStore(t, 5, 3, 8)
	values := map[string][]byte{}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		v := bytes.Repeat([]byte{byte('a' + i)}, 50+i*13)
		values[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rotate([]simnet.NodeID{"fresh-0", "fresh-1"}, []simnet.NodeID{"store-0", "store-1"}); err != nil {
		t.Fatal(err)
	}
	s.cluster.Net.Run(100000)
	for k, want := range values {
		got, found, err := s.Get(k)
		if err != nil || !found {
			t.Fatalf("Get(%s) after rotation: %v %v", k, found, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q, want %q", k, got, want)
		}
	}
	// Reads succeed even with the retired instances gone and another
	// replica down: the new view holds freshly encoded shards.
	s.cluster.Net.Crash("store-2")
	for k, want := range values {
		got, found, err := s.Get(k)
		if err != nil || !found || !bytes.Equal(got, want) {
			t.Fatalf("post-rotation Get(%s) with one more down: %q %v %v", k, got, found, err)
		}
	}
}

func TestLargeValues(t *testing.T) {
	s := newStore(t, 5, 3, 9)
	value := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	if err := s.Put("large", value); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("large")
	if err != nil || !found || !bytes.Equal(got, value) {
		t.Fatalf("large value round trip failed: %v %v len=%d", found, err, len(got))
	}
}

func TestEmptyValue(t *testing.T) {
	s := newStore(t, 5, 3, 10)
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("empty")
	if err != nil || !found {
		t.Fatalf("empty value: %v %v", found, err)
	}
	if len(got) != 0 {
		t.Fatalf("empty value read back %q", got)
	}
}

func TestReplicationModeM1(t *testing.T) {
	// m = 1 degenerates to classic full-copy replication.
	s := newStore(t, 3, 1, 11)
	if err := s.Put("k", []byte("classic")); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("k")
	if err != nil || !found || string(got) != "classic" {
		t.Fatalf("m=1 round trip: %q %v %v", got, found, err)
	}
}

func TestInvalidGeometry(t *testing.T) {
	net := simnet.New(12)
	if _, err := New(net, members(3), 5); err == nil {
		t.Fatal("m > n accepted")
	}
	if _, err := New(net, members(3), 0); err == nil {
		t.Fatal("m = 0 accepted")
	}
}
