// Package oxii assembles ParBlockchain networks: it wires the ordering
// service (pluggable consensus + block cutting + dependency-graph
// generation) and the executor fleet (Algorithms 1-3) over a transport,
// generates node keys, installs contracts on each application's agents,
// seeds genesis state, and provides the client driver used by examples
// and benchmarks.
//
// This package is the system-level entry point of the reproduction: a
// handful of lines create a full ParBlockchain deployment in-process.
package oxii

import (
	"fmt"
	"slices"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/node"
	"parblockchain/internal/ordering"
	"parblockchain/internal/state"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// Config describes a ParBlockchain deployment.
type Config struct {
	// Orderers names the ordering service members.
	Orderers []types.NodeID
	// Executors names all executor peers (agents and passive nodes).
	Executors []types.NodeID
	// Clients names the client identities (keys are generated for them so
	// orderers can verify request signatures).
	Clients []types.NodeID
	// Agents maps each application to its agent subset of Executors
	// (Sigma in the paper). Every agent gets the application's contract
	// installed.
	Agents map[types.AppID][]types.NodeID
	// Contracts maps each application to its contract logic.
	Contracts map[types.AppID]contract.Contract
	// Tau is the per-application required number of matching results;
	// missing entries default to 1.
	Tau map[types.AppID]int
	// Consensus picks the ordering protocol. Default node.ConsensusKafka
	// (the paper's evaluation setup).
	Consensus node.ConsensusKind
	// MaxBlockTxns, MaxBlockBytes, MaxBlockInterval are the three block
	// cut conditions (defaults 200 / 2MB / 100ms).
	MaxBlockTxns     int
	MaxBlockBytes    int
	MaxBlockInterval time.Duration
	// Tunables holds every durability knob (snapshot interval, WAL
	// segment size), shared verbatim with cluster JSON and the bench
	// harness.
	node.Tunables
	// DataDir roots the durability subsystem; every node keeps its durable
	// state under DataDir/<node-id> (see node.Config.DataDir). A rebuilt
	// Network on the same directory resumes every executor from its
	// durable height and every orderer cutting at height N+1, so a
	// full-cluster restart converges bit-identically to an always-up
	// cluster. Empty keeps everything in memory.
	DataDir string
	// Trace enables block-lifecycle tracing on every executor: per-stage
	// latency histograms (admission through externalize) plus a ring of
	// the slowest traces. Off, executors carry a nil tracer and the
	// instrumentation costs nothing — not even a clock read.
	Trace bool
	// OpsAddrs maps node IDs to ops-server listen addresses (":0" picks a
	// free port). A node listed here serves /metrics, /statusz, /healthz,
	// /traces, and pprof from Start until Stop; listed executors are
	// traced as if Trace were set. Nodes absent from the map get no
	// server and no telemetry registry.
	OpsAddrs map[types.NodeID]string
	// Crypto enables ed25519 signing and verification end to end. When
	// false, no-op signers model the crypto-free ablation.
	Crypto bool
	// ACL restricts client/application pairs; nil allows all.
	ACL *ordering.AccessControl
	// Genesis seeds every executor's state store before startup.
	Genesis []types.KV
	// OnCommit observes finalized blocks at the observer executor
	// (Executors[0]); used for metrics and client completion routing.
	OnCommit execution.CommitHook
	// Net is the transport; required.
	Net *transport.InMemNetwork
	// Logf receives diagnostics; nil uses the stdlib logger.
	Logf func(format string, args ...any)
}

// Network is a running ParBlockchain deployment.
type Network struct {
	cfg Config
	// ExecutorNodes and OrdererNodes are the assembled nodes, indexed like
	// the config's lists; each executor node carries its durability
	// manager and recovery provenance (nil without Config.DataDir).
	ExecutorNodes []*node.Executor
	OrdererNodes  []*node.Orderer
	// Orderers, Executors, Stores and Ledgers are views of the nodes' role
	// cores and state, indexed the same way.
	Orderers  []*ordering.Orderer
	Executors []*execution.Executor
	Stores    []*state.KVStore
	Ledgers   []*ledger.Ledger
	signers   map[types.NodeID]cryptoutil.Signer
	verifier  cryptoutil.Verifier
	clients   map[types.NodeID]*Client
	router    *CommitRouter
}

// New builds a ParBlockchain network. Call Start to run it.
func New(cfg Config) (*Network, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("oxii: Config.Net is required")
	}
	if len(cfg.Orderers) == 0 || len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("oxii: need at least one orderer and one executor")
	}
	for app, agents := range cfg.Agents {
		if len(agents) == 0 {
			return nil, fmt.Errorf("oxii: application %s has no agents", app)
		}
		if _, ok := cfg.Contracts[app]; !ok {
			return nil, fmt.Errorf("oxii: application %s has no contract", app)
		}
	}

	signers, verifier, err := node.GenerateKeys(cfg.Crypto, cfg.Orderers, cfg.Executors, cfg.Clients)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:      cfg,
		signers:  signers,
		verifier: verifier,
		clients:  make(map[types.NodeID]*Client),
		router:   NewCommitRouter(),
	}

	// A failure part-way stops the nodes built so far, so no WAL segment
	// or durable-log lock leaks (and a retried New starts
	// from clean directories).
	n := len(cfg.Executors)
	nw.ExecutorNodes = make([]*node.Executor, n)
	nw.Executors = make([]*execution.Executor, n)
	nw.Stores = make([]*state.KVStore, n)
	nw.Ledgers = make([]*ledger.Ledger, n)
	for i := range cfg.Executors {
		if err := nw.buildExecutor(i); err != nil {
			nw.Stop()
			return nil, err
		}
	}
	nw.OrdererNodes = make([]*node.Orderer, len(cfg.Orderers))
	nw.Orderers = make([]*ordering.Orderer, len(cfg.Orderers))
	for i := range cfg.Orderers {
		if err := nw.buildOrderer(i); err != nil {
			nw.Stop()
			return nil, err
		}
	}
	return nw, nil
}

// nodeConfig describes one node of the deployment to the node package:
// everything but the observer's hooks.
func (nw *Network) nodeConfig(id types.NodeID) (node.Config, error) {
	cfg := nw.cfg
	ep, err := cfg.Net.Endpoint(id)
	if err != nil {
		return node.Config{}, err
	}
	return node.Config{
		ID:                id,
		Endpoint:          ep,
		Signer:            nw.signers[id],
		Verifier:          nw.verifier,
		Crypto:            cfg.Crypto,
		Orderers:          cfg.Orderers,
		Executors:         cfg.Executors,
		Agents:            cfg.Agents,
		Tau:               cfg.Tau,
		Contracts:         cfg.Contracts,
		Consensus:         cfg.Consensus,
		MaxBlockTxns:      cfg.MaxBlockTxns,
		MaxBlockBytes:     cfg.MaxBlockBytes,
		MaxBlockInterval:  cfg.MaxBlockInterval,
		ACL:               cfg.ACL,
		DataDir:           cfg.DataDir,
		Genesis:           cfg.Genesis,
		Tunables:          cfg.Tunables,
		Trace:             cfg.Trace,
		OpsAddr:           cfg.OpsAddrs[id],
		RegisterTransport: cfg.Net.RegisterTelemetry,
		Logf:              cfg.Logf,
	}, nil
}

// buildExecutor assembles executor i on a fresh endpoint and points the
// exported slots at it. New uses it for initial construction,
// RestartExecutor to rebuild a killed node in place.
func (nw *Network) buildExecutor(i int) error {
	nc, err := nw.nodeConfig(nw.cfg.Executors[i])
	if err != nil {
		return err
	}
	// Only the observer (Executors[0]) routes client completions and
	// feeds the user hook; hooks on every peer would duplicate them.
	if i == 0 {
		nc.OnCommit = nw.router.ObserverHook(nw.cfg.OnCommit)
	}
	n, err := node.NewExecutor(nc)
	if err != nil {
		return fmt.Errorf("oxii: %w", err)
	}
	nw.ExecutorNodes[i], nw.Executors[i] = n, n.Executor
	nw.Stores[i], nw.Ledgers[i] = n.Store, n.Ledger
	return nil
}

// buildOrderer assembles orderer i on a fresh endpoint. New uses it for
// initial construction, RestartOrderer to rebuild a killed node in
// place.
func (nw *Network) buildOrderer(i int) error {
	nc, err := nw.nodeConfig(nw.cfg.Orderers[i])
	if err != nil {
		return err
	}
	n, err := node.NewOrderer(nc)
	if err != nil {
		return fmt.Errorf("oxii: %w", err)
	}
	nw.OrdererNodes[i], nw.Orderers[i] = n, n.Orderer
	return nil
}

// Start launches every node, and the ops servers of those listed in
// Config.OpsAddrs. Executors start first so no NEWBLOCK is dropped.
func (nw *Network) Start() {
	for _, e := range nw.ExecutorNodes {
		nw.logOps(e.Start())
	}
	for _, o := range nw.OrdererNodes {
		nw.logOps(o.Start())
	}
}

// logOps reports an ops server that failed to listen: logged and
// skipped, never fatal.
func (nw *Network) logOps(err error) {
	if err != nil && nw.cfg.Logf != nil {
		nw.cfg.Logf("oxii: %v", err)
	}
}

// OpsServer returns the running ops server of a node, or nil. The
// returned server's Addr resolves ":0" configs to the bound port.
func (nw *Network) OpsServer(id types.NodeID) *telemetry.Server {
	if i := slices.Index(nw.cfg.Executors, id); i >= 0 {
		return nw.ExecutorNodes[i].OpsServer()
	}
	if i := slices.Index(nw.cfg.Orderers, id); i >= 0 {
		return nw.OrdererNodes[i].OpsServer()
	}
	return nil
}

// Stop shuts every node down and closes the transport endpoints owned by
// nodes. The underlying transport itself belongs to the caller.
// Durability managers close after their executors quiesce, so every
// finalized block is on disk when Stop returns.
func (nw *Network) Stop() {
	for _, o := range nw.OrdererNodes {
		if o != nil { // New stops a partly built network
			o.Stop()
		}
	}
	for _, e := range nw.ExecutorNodes {
		if e != nil {
			e.Stop()
		}
	}
	nw.router.Shutdown()
}

// KillExecutor takes executor i down the way a process kill would: its
// endpoint is removed from the network first (in-flight and future
// traffic to the node is lost, peers see silence), then the node stops,
// leaving only what the WAL and snapshots already held. The chaos
// harness pairs it with RestartExecutor.
func (nw *Network) KillExecutor(i int) {
	nw.cfg.Net.Remove(nw.cfg.Executors[i])
	nw.ExecutorNodes[i].Stop()
}

// RestartExecutor rebuilds and starts a killed executor in place: a
// fresh endpoint replaces the severed one, store and ledger recover from
// the node's durable directory (or restart from genesis without
// DataDir), and the node, Executors, Stores and Ledgers slots update to
// the new instances, as does the ops server (the old one sampled the
// corpse). The rejoined node catches up on whatever it missed via the
// executors' state-sync protocol, so nothing needs to be re-sent by
// the orderers.
func (nw *Network) RestartExecutor(i int) error {
	if err := nw.buildExecutor(i); err != nil {
		return err
	}
	nw.logOps(nw.ExecutorNodes[i].Start())
	return nil
}

// KillOrderer takes orderer i down the way a process kill would: its
// endpoint is removed from the network first (in-flight and future
// traffic to the node is lost, peers see silence), then the node's
// goroutines stop and its durable logs drop their unsynced bytes — what
// a power loss does to the page cache — keeping only what fsync already
// covered. The chaos harness pairs it with RestartOrderer.
func (nw *Network) KillOrderer(i int) {
	nw.cfg.Net.Remove(nw.cfg.Orderers[i])
	nw.OrdererNodes[i].Kill()
}

// RestartOrderer rebuilds and starts a killed orderer in place: a fresh
// endpoint replaces the severed one, the cut-state log (and, under
// Kafka, the consensus log) recovers from the node's durable
// directory, and the rejoined orderer resumes cutting at the height
// after its last fsynced cut — re-streaming the retained window so
// executors that missed blocks catch up.
func (nw *Network) RestartOrderer(i int) error {
	if err := nw.buildOrderer(i); err != nil {
		return err
	}
	nw.logOps(nw.OrdererNodes[i].Start())
	return nil
}

// Client returns (creating on first use) the driver for a configured
// client identity.
func (nw *Network) Client(id types.NodeID) (*Client, error) {
	if c, ok := nw.clients[id]; ok {
		return c, nil
	}
	signer, ok := nw.signers[id]
	if !ok {
		return nil, fmt.Errorf("oxii: unknown client %s (add it to Config.Clients)", id)
	}
	ep, err := nw.cfg.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	c := NewClient(id, ep, signer, nw.cfg.Orderers, nw.router)
	nw.clients[id] = c
	return c, nil
}

// Router exposes the commit router (for tests that register directly).
func (nw *Network) Router() *CommitRouter { return nw.router }

// ObserverStore returns the observer executor's (Executors[0]) state
// store. It panics with a descriptive message if the network holds no
// executors — possible only for a Network value not built by New, which
// rejects executor-less configurations.
func (nw *Network) ObserverStore() *state.KVStore {
	if len(nw.Stores) == 0 {
		panic("oxii: network has no executors; ObserverStore needs Executors[0] (construct the Network with New)")
	}
	return nw.Stores[0]
}

// ObserverLedger returns the observer executor's (Executors[0]) ledger.
// It panics with a descriptive message if the network holds no executors
// — possible only for a Network value not built by New, which rejects
// executor-less configurations.
func (nw *Network) ObserverLedger() *ledger.Ledger {
	if len(nw.Ledgers) == 0 {
		panic("oxii: network has no executors; ObserverLedger needs Executors[0] (construct the Network with New)")
	}
	return nw.Ledgers[0]
}
