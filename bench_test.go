// Package parblockchain's top-level benchmarks regenerate the paper's
// evaluation figures as testing.B benchmarks, one per table/figure. Each
// iteration deploys the system in-process, applies closed-loop load, and
// reports steady-state throughput and latency as custom metrics
// (tx/s, ms-avg-latency), which is what the paper's axes show.
//
// The harness measures wall-clock behaviour of a running cluster, so run
// with a single iteration per benchmark:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Full parameter sweeps (every block size, every client level) live in
// cmd/parbench; these benchmarks pin each figure's representative
// configuration so regressions surface in CI-sized runs.
package parblockchain_test

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/bench"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/node"
)

// quick returns options sized for benchmark iterations: a short but
// steady measurement window.
func quick(system bench.System) bench.Options {
	return bench.Options{
		System:   system,
		Clients:  400,
		Warmup:   400 * time.Millisecond,
		Duration: 1200 * time.Millisecond,
		ExecCost: time.Millisecond,
	}
}

func report(b *testing.B, r bench.Result) {
	b.Helper()
	b.ReportMetric(r.Throughput, "tx/s")
	b.ReportMetric(float64(r.AvgLatency.Microseconds())/1000, "ms-avg-latency")
	b.ReportMetric(float64(r.Aborted), "aborted")
	if r.Errors > 0 {
		b.Fatalf("%d operations failed", r.Errors)
	}
}

func runPoint(b *testing.B, opts bench.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

// BenchmarkFig5_BlockSize regenerates Figure 5: throughput and latency
// per block size for each system (10, 200, 1000 transactions per block —
// the paper's endpoints plus OXII's optimum).
func BenchmarkFig5_BlockSize(b *testing.B) {
	for _, sys := range []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII} {
		for _, size := range []int{10, 200, 1000} {
			b.Run(fmt.Sprintf("%s/block=%d", sys, size), func(b *testing.B) {
				opts := quick(sys)
				opts.BlockTxns = size
				runPoint(b, opts)
			})
		}
	}
}

// BenchmarkFig6_Contention regenerates Figure 6: each system at the four
// contention degrees (OXII* = cross-application conflicts).
func BenchmarkFig6_Contention(b *testing.B) {
	for _, contention := range []float64{0, 0.2, 0.8, 1.0} {
		systems := []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII}
		if contention > 0 {
			systems = append(systems, bench.SystemOXIIX)
		}
		for _, sys := range systems {
			b.Run(fmt.Sprintf("c=%.0f%%/%s", contention*100, sys), func(b *testing.B) {
				opts := quick(sys)
				opts.Contention = contention
				runPoint(b, opts)
			})
		}
	}
}

// BenchmarkFig7_Geo regenerates Figure 7: the no-contention workload with
// one node group moved to a far data center (85ms one-way WAN).
func BenchmarkFig7_Geo(b *testing.B) {
	groups := []bench.NodeGroup{
		bench.GroupClients, bench.GroupOrderers,
		bench.GroupExecutors, bench.GroupPassive,
	}
	for _, moved := range groups {
		for _, sys := range []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII} {
			if sys == bench.SystemOX && (moved == bench.GroupExecutors || moved == bench.GroupPassive) {
				continue // OX has no executor / non-executor separation
			}
			b.Run(fmt.Sprintf("move=%s/%s", moved, sys), func(b *testing.B) {
				opts := quick(sys)
				opts.MoveGroup = moved
				if moved == bench.GroupPassive {
					opts.PassiveNodes = 2
				}
				opts.Warmup = time.Second // WAN pipelines fill slowly
				runPoint(b, opts)
			})
		}
	}
}

// BenchmarkAblationA1_CommitMulticast compares Algorithm 2's lazy
// cross-application cut rule against eager per-transaction COMMIT
// multicast under cross-application contention.
func BenchmarkAblationA1_CommitMulticast(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			opts := quick(bench.SystemOXIIX)
			opts.Contention = 0.2
			opts.EagerCommit = eager
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
				b.ReportMetric(float64(r.CommitMsgs), "commit-multicasts")
			}
		})
	}
}

// BenchmarkAblationA2_GraphMode compares the standard dependency rule
// against the multi-version rule under high contention.
func BenchmarkAblationA2_GraphMode(b *testing.B) {
	for _, mode := range []depgraph.Mode{depgraph.Standard, depgraph.MultiVersion} {
		b.Run(mode.String(), func(b *testing.B) {
			opts := quick(bench.SystemOXII)
			opts.Contention = 0.8
			opts.GraphMode = mode
			runPoint(b, opts)
		})
	}
}

// BenchmarkAblationA4_ConsensusPlug compares the three pluggable ordering
// protocols under the same no-contention workload.
func BenchmarkAblationA4_ConsensusPlug(b *testing.B) {
	for _, kind := range []node.ConsensusKind{node.ConsensusKafka, node.ConsensusPBFT, node.ConsensusRaft} {
		b.Run(string(kind), func(b *testing.B) {
			opts := quick(bench.SystemOXII)
			opts.Consensus = kind
			if kind == node.ConsensusPBFT {
				opts.Orderers = 4
			}
			runPoint(b, opts)
		})
	}
}

// BenchmarkCryptoOverhead measures the end-to-end cost of ed25519
// signing/verification on the OXII path.
func BenchmarkCryptoOverhead(b *testing.B) {
	for _, crypto := range []bool{false, true} {
		name := "nocrypto"
		if crypto {
			name = "ed25519"
		}
		b.Run(name, func(b *testing.B) {
			opts := quick(bench.SystemOXII)
			opts.Crypto = crypto
			runPoint(b, opts)
		})
	}
}
