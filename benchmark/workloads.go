package main

import "time"

// spec is one benchmark workload: a deployment shape plus the traffic
// offered to it. Only the fields below differ between workloads; every
// other tunable of the system stays at its zero value, so each workload
// measures what a default deployment runs.
type spec struct {
	name string
	why  string
	// tcp deploys six cmd/parnode processes over loopback TCP with
	// crypto and a data directory, instead of an in-process oxii.Network.
	tcp bool
	// hotPer100 is the exact number of transactions in every 100 that
	// transfer out of the hot account (the contention degree).
	hotPer100 int
	// crossApp shares the hot account between applications and rotates
	// consecutive hot transactions over them (the paper's OXII*).
	crossApp bool
	// agentsPerApp and tau size each application's agent set and the
	// matching-result quorum.
	agentsPerApp int
	tau          int
	// cost is the modeled contract service time (sleep), zero for none.
	cost time.Duration
	// rate is the open-loop rate R of the rate phase, in tx/s; window
	// is the closed-loop in-flight count W of the peak phase.
	rate   int
	window int
}

// Cluster shape shared by every workload.
const (
	numOrderers  = 3
	numExecutors = 3
	numApps      = 3
	// Block cut, pinned because oxii and clustercfg disagree on the
	// default (200 vs 100 transactions).
	blockTxns       = 200
	blockIntervalMs = 100
	// netDelay is the one-way delay injected on every in-process link.
	// With instant delivery, latency would be processor time only.
	netDelay = 250 * time.Microsecond
	// coldAccounts is each application's pool of uncontended accounts.
	coldAccounts = 8192
	// execWorkers is the executor default the capacity bound of
	// execution.parallel_efficiency assumes; the benchmark never sets it.
	execWorkers = 8
)

// workloads are the four named workloads; later issues cite the names.
var workloads = []spec{
	{
		name:         "independent-raw",
		why:          "0% contention, no modeled cost, in-process: CPU-bound on the cluster's own code, so any layer's CPU saving shows and scheduling quality does not",
		agentsPerApp: 1, tau: 1, rate: 6000, window: 800,
	},
	{
		name:      "contended-chain",
		why:       "20% of txs chain on one hot account of app1 with 1 ms cost: throughput is set by the time per dependency hop, so CPU savings should not move it",
		hotPer100: 20, agentsPerApp: 1, tau: 1, cost: time.Millisecond, rate: 1500, window: 800,
	},
	{
		name:      "crossapp-quorum",
		why:       "the hot chain alternates apps with 2 agents per app and tau=2: every hop crosses agents and waits for a vote quorum, so batching or delaying COMMITs costs here",
		hotPer100: 20, crossApp: true, agentsPerApp: 2, tau: 2, cost: time.Millisecond, rate: 900, window: 800,
	},
	{
		name: "tcp-durable",
		why:  "six parnode processes on loopback TCP with crypto and a data dir: the only workload with codecs, signatures, sockets and fsync on the path",
		tcp:  true, agentsPerApp: 1, tau: 1, rate: 2000, window: 400,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
