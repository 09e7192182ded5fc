// Package bench is the experiment harness for the paper's evaluation
// (Section V): it deploys OX, XOV, or ParBlockchain (OXII) in-process
// over the latency-modeled transport, drives it with closed-loop clients
// at a chosen concurrency, and reports steady-state throughput and
// end-to-end latency — the measurement methodology of the paper
// ("an increasing number of clients ... until the end-to-end throughput
// is saturated ... average measured during the steady state").
//
// The per-figure sweeps (block size, contention degree, geo placement)
// are built on the single-point Run; see sweeps.go and cmd/parbench.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/baselines/ox"
	"parblockchain/internal/baselines/xov"
	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/oxii"
	"parblockchain/internal/persist"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// System selects the paradigm under test.
type System string

// The three paradigms compared in the paper. OXIIX is OXII under
// cross-application contention (the dashed "OXII*" lines in Figure 6).
const (
	SystemOX    System = "OX"
	SystemXOV   System = "XOV"
	SystemOXII  System = "OXII"
	SystemOXIIX System = "OXII*"
)

// NodeGroup names a group of nodes for geo-placement experiments
// (Figure 7 moves one group at a time to a far data center).
type NodeGroup string

// The movable node groups.
const (
	GroupNone      NodeGroup = ""
	GroupClients   NodeGroup = "clients"
	GroupOrderers  NodeGroup = "orderers"
	GroupExecutors NodeGroup = "executors"
	GroupPassive   NodeGroup = "non-executors"
)

// Options parameterizes one measurement point.
type Options struct {
	// System is the paradigm under test.
	System System
	// Orderers is the ordering service size (default 3, the paper's
	// Kafka setup).
	Orderers int
	// Executors is the number of agent/endorser nodes (default 3, one
	// per application).
	Executors int
	// PassiveNodes adds non-executor peers (default 0; Figure 7(d) uses
	// them).
	PassiveNodes int
	// Apps is the number of applications (default 3).
	Apps int
	// Consensus picks the ordering protocol (default Kafka-style).
	Consensus node.ConsensusKind
	// BlockTxns is the block size in transactions (default 200 for
	// OX/OXII, 100 for XOV, the paper's peak configurations).
	BlockTxns int
	// BlockInterval is the block timeout cut (default 100ms).
	BlockInterval time.Duration
	// Contention is the fraction of conflicting transactions.
	Contention float64
	// ExecCost is the modeled contract service time (default 1ms,
	// calibrated so sequential OX peaks near the paper's ~900 tps).
	ExecCost time.Duration
	// SpinFraction is the CPU-bound share of ExecCost (default 0).
	SpinFraction float64
	// Crypto enables end-to-end signatures.
	Crypto bool
	// Clients is the closed-loop client concurrency.
	Clients int
	// Warmup and Duration bound the run: measurement starts after Warmup
	// and lasts Duration (defaults 500ms / 2s).
	Warmup   time.Duration
	Duration time.Duration
	// OpTimeout bounds one end-to-end operation (default 30s).
	OpTimeout time.Duration
	// MoveGroup places one node group in a far zone.
	MoveGroup NodeGroup
	// IntraZoneLatency and InterZoneLatency are one-way delays (defaults
	// 250us / 85ms, LAN vs US-West<->Tokyo).
	IntraZoneLatency time.Duration
	InterZoneLatency time.Duration
	// AgentsPerApp replicates each application's contract on this many
	// consecutive executors (default 1, the paper's disjoint placement).
	AgentsPerApp int
	// Tau is the per-application number of matching results required to
	// commit (default 1; capped at AgentsPerApp).
	Tau int
	// VoteDelay adds this one-way delay to COMMIT multicasts sent by
	// every odd-indexed executor (e2, e4, ...), so with AgentsPerApp=2
	// each application has one fast and one slow voter: the first vote
	// arrives quickly while the tau=2 quorum waits out the delay — the
	// spread speculation exists to exploit. Zero disables the harness.
	VoteDelay time.Duration
	// Tunables are the OXII deployment's knobs, handed to oxii.Config
	// verbatim: the figures run the executor a deployment runs, so every
	// zero takes the same default there as here.
	node.Tunables
	// DataDir enables the durability subsystem for OXII runs: every
	// executor write-ahead-logs finalized blocks (and snapshots state)
	// under DataDir/<id>, putting the fsync cost on the finalize path,
	// and every orderer logs consensus entries and cut decisions under
	// DataDir/<id>/olog, putting a cut-record fsync on the block-cut
	// path. Empty keeps ledger and state in memory. Sweeps use a fresh
	// temp directory per point.
	DataDir string
	// Trace enables block-lifecycle tracing on the OXII executors: every
	// block's delivery-to-externalize span is split into pipeline stages
	// and Result.Stages reports the observer's per-stage latency
	// breakdown. Off (the default), executors run with nil tracers and
	// the instrumentation costs nothing — the configuration every
	// headline throughput number is measured under.
	Trace bool
	// Seed fixes the workload stream.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Orderers <= 0 {
		o.Orderers = 3
	}
	if o.Executors <= 0 {
		o.Executors = 3
	}
	if o.Apps <= 0 {
		o.Apps = 3
	}
	if o.Consensus == "" {
		o.Consensus = node.ConsensusKafka
	}
	if o.BlockTxns <= 0 {
		if o.System == SystemXOV {
			o.BlockTxns = 100
		} else {
			o.BlockTxns = 200
		}
	}
	if o.BlockInterval <= 0 {
		o.BlockInterval = 100 * time.Millisecond
	}
	if o.ExecCost < 0 {
		o.ExecCost = 0
	} else if o.ExecCost == 0 {
		o.ExecCost = time.Millisecond
	}
	if o.Clients <= 0 {
		o.Clients = 64
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.IntraZoneLatency <= 0 {
		o.IntraZoneLatency = 250 * time.Microsecond
	}
	if o.InterZoneLatency <= 0 {
		o.InterZoneLatency = 85 * time.Millisecond
	}
	if o.AgentsPerApp <= 0 {
		o.AgentsPerApp = 1
	}
	if o.AgentsPerApp > o.Executors {
		o.AgentsPerApp = o.Executors
	}
	if o.Tau > o.AgentsPerApp {
		o.Tau = o.AgentsPerApp
	}
	return o
}

// Result is one measured point.
type Result struct {
	// System and Clients identify the point.
	System  System
	Clients int
	// Throughput is committed transactions per second in the window.
	Throughput float64
	// Latency statistics over successful operations (full end-to-end,
	// including XOV endorsement rounds and retries).
	AvgLatency time.Duration
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	// Committed is the number of operations completed in the window.
	Committed int64
	// Aborted counts transactions whose final result was an abort.
	Aborted int64
	// Retries counts XOV MVCC resubmissions (0 for other systems).
	Retries uint64
	// Messages is the total transport message count for the whole run.
	Messages int64
	// CommitMsgs is the number of OXII COMMIT multicasts (0 otherwise).
	CommitMsgs uint64
	// Errors counts operations that failed outright (timeouts).
	Errors int64
	// StateHash is the observer store's digest at the end of the run.
	// The store maintains it incrementally, so sampling it is O(1) in
	// state size; sweeps use it to cross-check that honest replicas
	// converged (it is not an adversarially-robust commitment — see
	// state.KVStore.Hash).
	StateHash types.Hash
	// WALAppends and WALSyncs are the observer executor's durability
	// counters for the whole run (0 without Options.DataDir). Syncs <<
	// Appends is the group-commit amortization: pipelined blocks
	// finalizing in one batch share a single fsync.
	WALAppends uint64
	WALSyncs   uint64
	// Speculation counters, summed over every executor (all 0 at Tau 1,
	// where the first vote is the quorum): executions that read at least
	// one uncommitted input, buffered votes released after every input
	// committed with a matching digest, invalidated speculations, and
	// cascade re-executions. In fault-free runs Misses/Reexecs stay 0: honest
	// agents execute deterministically, so adopted first votes always
	// match the quorum.
	SpecExecuted uint64
	SpecHits     uint64
	SpecMisses   uint64
	SpecReexecs  uint64
	// SpecThrottled counts leading votes the adaptive throttle declined
	// to adopt because the voting agent's speculative miss rate crossed
	// the threshold. Nonzero only when a faulty or lagging agent keeps
	// voting results that lose the quorum.
	SpecThrottled uint64
	// Stages is the observer executor's per-stage block-lifecycle latency
	// breakdown (nil without Options.Trace), keyed by stage name —
	// admission, dispatch, execute, seal, finalize, fsync, externalize —
	// plus "total" for the whole delivery-to-externalize span. Each entry
	// summarizes one block-stage histogram over every block the observer
	// finalized during the run (warm-up included; stages are per-block
	// spans, not per-operation latencies).
	Stages map[string]telemetry.LatencyStats
}

// String formats the point as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-6s clients=%-5d tput=%8.0f tx/s  avg=%8s p95=%8s aborted=%-6d err=%d",
		r.System, r.Clients, r.Throughput,
		r.AvgLatency.Round(time.Millisecond), r.P95.Round(time.Millisecond),
		r.Aborted, r.Errors)
}

// Run measures one point: it deploys the system, applies closed-loop
// load, and reports steady-state throughput and latency.
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	switch opts.System {
	case SystemOX, SystemXOV, SystemOXII, SystemOXIIX:
	default:
		return Result{}, fmt.Errorf("bench: unknown system %q", opts.System)
	}

	// Topology.
	orderers := nodeNames("o", opts.Orderers)
	executors := nodeNames("e", opts.Executors)
	passive := nodeNames("p", opts.PassiveNodes)
	allExecutors := append(append([]types.NodeID{}, executors...), passive...)
	const clientID = types.NodeID("c1")

	apps := make([]types.AppID, opts.Apps)
	agents := make(map[types.AppID][]types.NodeID, opts.Apps)
	tau := make(map[types.AppID]int, opts.Apps)
	contracts := make(map[types.AppID]contract.Contract, opts.Apps)
	cost := contract.CostModel{Cost: opts.ExecCost, SpinFraction: opts.SpinFraction}
	for i := range apps {
		app := types.AppID(fmt.Sprintf("app%d", i+1))
		apps[i] = app
		for k := 0; k < opts.AgentsPerApp; k++ {
			agents[app] = append(agents[app], executors[(i+k)%len(executors)])
		}
		if opts.Tau > 1 {
			tau[app] = opts.Tau
		}
		contracts[app] = contract.WithCost(contract.NewAccounting(), cost)
	}

	// Workload. The cold pool only needs to dwarf the in-flight window
	// (a few blocks); a compact pool keeps per-run genesis cheap.
	coldPool := 8 * opts.BlockTxns
	if coldPool < 4096 {
		coldPool = 4096
	}
	gen := workload.New(workload.Config{
		Apps:               apps,
		Contention:         opts.Contention,
		CrossApp:           opts.System == SystemOXIIX,
		ColdAccountsPerApp: coldPool,
		Seed:               opts.Seed,
	})
	genesis := gen.Genesis()

	// Transport with zone-based latency.
	zones := make(map[types.NodeID]string)
	assign := func(group NodeGroup, ids []types.NodeID) {
		zone := "dc1"
		if opts.MoveGroup == group {
			zone = "dc2"
		}
		for _, id := range ids {
			zones[id] = zone
		}
	}
	assign(GroupClients, []types.NodeID{clientID})
	assign(GroupOrderers, orderers)
	assign(GroupExecutors, executors)
	assign(GroupPassive, passive)
	netCfg := transport.InMemConfig{
		Latency: &transport.ZoneLatency{
			Zone:        zones,
			DefaultZone: "dc1",
			Intra:       opts.IntraZoneLatency,
			Inter:       opts.InterZoneLatency,
		},
	}
	if opts.VoteDelay > 0 {
		// The delayed-vote harness: COMMIT multicasts from odd-indexed
		// executors arrive VoteDelay late, so each application (agents are
		// consecutive executors) has fast and slow voters — the first vote
		// leads the tau quorum by the delay, the spread speculation
		// overlaps with execution.
		slow := make(map[types.NodeID]bool, len(executors)/2)
		for i, id := range executors {
			if i%2 == 1 {
				slow[id] = true
			}
		}
		delay := opts.VoteDelay
		netCfg.ExtraLatency = func(from, _ types.NodeID, payload any) time.Duration {
			if _, ok := payload.(*types.CommitMsg); ok && slow[from] {
				return delay
			}
			return 0
		}
	}
	net := transport.NewInMemNetwork(netCfg)
	defer net.Close()

	// Instruments.
	meter := telemetry.NewMeter()
	rec := new(telemetry.Histogram)
	var aborted, errorsN atomic.Int64
	var inWindow atomic.Bool

	// Per-operation client step, system-specific.
	var step func(ctx context.Context, clientTS uint64) error
	var stopNet func()
	var commitMsgs func() uint64
	var retriesFn func() uint64
	var stateHash func() types.Hash
	var walStats func() persist.Stats
	var specStats func() (executed, hits, misses, reexecs, throttled uint64)
	var stageStats func() map[string]telemetry.LatencyStats

	switch opts.System {
	case SystemOXII, SystemOXIIX:
		nw, err := oxii.New(oxii.Config{
			Orderers:         orderers,
			Executors:        allExecutors,
			Clients:          []types.NodeID{clientID},
			Agents:           agents,
			Contracts:        contracts,
			Tau:              tau,
			Consensus:        opts.Consensus,
			MaxBlockTxns:     opts.BlockTxns,
			MaxBlockInterval: opts.BlockInterval,
			Tunables:         opts.Tunables,
			DataDir:          opts.DataDir,
			Trace:            opts.Trace,
			Crypto:           opts.Crypto,
			Genesis:          genesis,
			Net:              net,
			Logf:             discardLogf,
		})
		if err != nil {
			return Result{}, err
		}
		nw.Start()
		stopNet = nw.Stop
		client, err := nw.Client(clientID)
		if err != nil {
			return Result{}, err
		}
		step = func(ctx context.Context, clientTS uint64) error {
			tx := gen.Next(clientID, clientTS)
			start := time.Now()
			result, err := client.Do(tx, opts.OpTimeout)
			if err != nil {
				return err
			}
			observe(meter, rec, &inWindow, &aborted, start, result.Aborted)
			return nil
		}
		commitMsgs = func() uint64 {
			var total uint64
			for _, e := range nw.Executors {
				total += e.Stats().CommitMsgsSent
			}
			return total
		}
		stateHash = func() types.Hash { return nw.ObserverStore().Hash() }
		walStats = func() persist.Stats {
			if mgr := nw.ExecutorNodes[0].Persist; mgr != nil {
				return mgr.Stats()
			}
			return persist.Stats{}
		}
		specStats = func() (executed, hits, misses, reexecs, throttled uint64) {
			for _, e := range nw.Executors {
				st := e.Stats()
				executed += st.SpecExecuted
				hits += st.SpecHits
				misses += st.SpecMisses
				reexecs += st.SpecReexecs
				throttled += st.SpecThrottled
			}
			return
		}
		if opts.Trace {
			observer := nw.Executors[0]
			stageStats = func() map[string]telemetry.LatencyStats {
				snaps := observer.Tracer().StageSnapshot()
				out := make(map[string]telemetry.LatencyStats, len(snaps))
				for stage, snap := range snaps {
					out[stage] = snap.Latency()
				}
				return out
			}
		}
	case SystemOX:
		nw, err := ox.New(ox.Config{
			Orderers:         orderers,
			Peers:            allExecutors,
			Clients:          []types.NodeID{clientID},
			Contracts:        contracts,
			Consensus:        opts.Consensus,
			MaxBlockTxns:     opts.BlockTxns,
			MaxBlockInterval: opts.BlockInterval,
			Crypto:           opts.Crypto,
			Genesis:          genesis,
			Net:              net,
			Logf:             discardLogf,
		})
		if err != nil {
			return Result{}, err
		}
		nw.Start()
		stopNet = nw.Stop
		stateHash = func() types.Hash { return nw.ObserverStore().Hash() }
		client, err := nw.Client(clientID)
		if err != nil {
			return Result{}, err
		}
		step = func(ctx context.Context, clientTS uint64) error {
			tx := gen.Next(clientID, clientTS)
			start := time.Now()
			result, err := client.Do(tx, opts.OpTimeout)
			if err != nil {
				return err
			}
			observe(meter, rec, &inWindow, &aborted, start, result.Aborted)
			return nil
		}
	case SystemXOV:
		nw, err := xov.New(xov.Config{
			Orderers:         orderers,
			Peers:            allExecutors,
			Clients:          []types.NodeID{clientID},
			Agents:           agents,
			Contracts:        contracts,
			Consensus:        opts.Consensus,
			MaxBlockTxns:     opts.BlockTxns,
			MaxBlockInterval: opts.BlockInterval,
			Crypto:           opts.Crypto,
			Genesis:          genesis,
			Net:              net,
			Logf:             discardLogf,
		})
		if err != nil {
			return Result{}, err
		}
		nw.Start()
		stopNet = nw.Stop
		stateHash = func() types.Hash { return nw.ObserverStore().Hash() }
		client, err := nw.Client(clientID)
		if err != nil {
			return Result{}, err
		}
		retriesFn = client.Retries
		step = func(ctx context.Context, clientTS uint64) error {
			tx := gen.Next(clientID, clientTS)
			start := time.Now()
			result, _, err := client.Do(tx, opts.OpTimeout)
			if err != nil {
				return err
			}
			observe(meter, rec, &inWindow, &aborted, start, result.Aborted)
			return nil
		}
	}

	// Closed-loop load: Clients goroutines, each submitting its next
	// transaction as soon as the previous one completes.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ts atomic.Uint64
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := step(ctx, ts.Add(1)); err != nil {
					if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
						errorsN.Add(1)
					}
					return
				}
			}
		}()
	}

	time.Sleep(opts.Warmup)
	rec.Reset()
	meter.WindowStart()
	inWindow.Store(true)
	time.Sleep(opts.Duration)
	inWindow.Store(false)
	meter.WindowEnd()
	cancel()
	stopNet() // releases clients blocked on in-flight operations
	wg.Wait()

	stats := rec.Snapshot().Latency()
	result := Result{
		System:     opts.System,
		Clients:    opts.Clients,
		Throughput: meter.Throughput(),
		AvgLatency: stats.Mean,
		P50:        stats.P50,
		P95:        stats.P95,
		P99:        stats.P99,
		Committed:  meter.WindowCount(),
		Aborted:    aborted.Load(),
		Messages:   net.MessageCount(""),
		Errors:     errorsN.Load(),
	}
	if commitMsgs != nil {
		result.CommitMsgs = commitMsgs()
	}
	if retriesFn != nil {
		result.Retries = retriesFn()
	}
	if stateHash != nil {
		result.StateHash = stateHash()
	}
	if walStats != nil {
		st := walStats()
		result.WALAppends, result.WALSyncs = st.Appends, st.Syncs
	}
	if specStats != nil {
		result.SpecExecuted, result.SpecHits, result.SpecMisses, result.SpecReexecs,
			result.SpecThrottled = specStats()
	}
	if stageStats != nil {
		result.Stages = stageStats()
	}
	return result, nil
}

// observe records one completed operation.
func observe(meter *telemetry.Meter, rec *telemetry.Histogram, inWindow *atomic.Bool,
	aborted *atomic.Int64, start time.Time, wasAborted bool) {
	if !inWindow.Load() {
		return
	}
	if wasAborted {
		aborted.Add(1)
		return
	}
	meter.Mark(1)
	rec.Observe(int64(time.Since(start)))
}

func nodeNames(prefix string, n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = types.NodeID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

func discardLogf(string, ...any) {}
