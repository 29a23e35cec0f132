package simnet

import "testing"

// BenchmarkMessageRoundTrip measures raw simulated message delivery.
func BenchmarkMessageRoundTrip(b *testing.B) {
	n := New(1)
	count := 0
	n.Register("dst", func(*Network, Message) { count++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send("src", "dst", i)
		n.Step()
	}
	if count != b.N {
		b.Fatalf("delivered %d of %d", count, b.N)
	}
}

// BenchmarkFanout measures a 1-to-9 broadcast plus delivery, the shape
// of a Paxos accept round.
func BenchmarkFanout(b *testing.B) {
	n := New(1)
	for _, id := range []NodeID{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		n.Register(id, func(*Network, Message) {})
	}
	targets := []NodeID{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range targets {
			n.Send("src", t, i)
		}
		n.Run(len(targets))
	}
}
