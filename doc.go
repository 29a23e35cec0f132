// Package repro is a from-scratch Go reproduction of "Bidding for
// Highly Available Services with Low Price in Spot Instance Market"
// (Guo, Chen, Wu, Zheng — HPDC 2015): the Jupiter availability- and
// cost-aware bidding framework, together with every substrate the paper
// depends on — a spot-market simulator with EC2 billing semantics, a
// semi-Markov spot-price failure model, quorum availability theory,
// Reed-Solomon erasure coding, a Multi-Paxos/RS-Paxos replicated state
// machine over a simulated network, a distributed lock service, an
// erasure-coded storage service, and a trace-replay harness that
// regenerates the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the package map and the
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root-level bench_test.go regenerates each table and
// figure as a go-test benchmark, as a smoke reproduction; performance is
// measured by the one benchmark in bench/ (BENCHMARK.json).
package repro
