// Package node assembles one ParBlockchain node — an executor or an
// orderer — from a single description. It is the only place that maps
// the deployment's knobs (Tunables) onto the execution, ordering,
// persist and consensus layers, and the only place that wires store →
// durability manager → ledger → executor → telemetry (and consensus →
// cut log → orderer → telemetry). The in-process network (oxii), the
// parnode binary and the TCP example all build their nodes here, so the
// equivalence and chaos suites test the code a deployed node runs.
package node

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/consensus/pbft"
	"parblockchain/internal/consensus/raft"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/ordering"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// ConsensusKind selects the pluggable ordering protocol.
type ConsensusKind string

// The supported consensus plugs.
const (
	// ConsensusPBFT is Byzantine fault tolerant (3f+1).
	ConsensusPBFT ConsensusKind = "pbft"
	// ConsensusRaft is crash fault tolerant (2f+1).
	ConsensusRaft ConsensusKind = "raft"
	// ConsensusKafka is the Kafka-style ordering service of the paper's
	// evaluation setup, and the default.
	ConsensusKafka ConsensusKind = "kafka"
)

// Config describes one node: who it is, the deployment it belongs to,
// and the knobs. NewExecutor and NewOrderer read the same struct, so a
// caller fills the shared part once and varies the identity per node.
type Config struct {
	// ID, Endpoint, Signer and Verifier are the node's identity, its
	// transport attachment (the node owns its Recv loop and closes it on
	// Stop) and its keys.
	ID       types.NodeID
	Endpoint transport.Endpoint
	Signer   cryptoutil.Signer
	Verifier cryptoutil.Verifier
	// Crypto turns on verification of every inbound signature; off models
	// the crypto-free ablation (pair it with no-op signers).
	Crypto bool

	// Orderers and Executors name every member of the two roles, in the
	// same order at every node (consensus membership, multicast targets).
	Orderers  []types.NodeID
	Executors []types.NodeID
	// Agents maps each application to its agent executors (Sigma in the
	// paper) and Tau to its required number of matching results (missing
	// entries default to 1).
	Agents map[types.AppID][]types.NodeID
	Tau    map[types.AppID]int
	// Contracts maps applications to their logic; an executor installs
	// the contracts of the applications it is an agent of.
	Contracts map[types.AppID]contract.Contract
	// Consensus picks the ordering protocol (default Kafka-style).
	Consensus ConsensusKind
	// MaxBlockTxns, MaxBlockBytes and MaxBlockInterval are the three
	// block-cut conditions; zero values take the ordering defaults
	// (200 / 2MB / 100ms).
	MaxBlockTxns     int
	MaxBlockBytes    int
	MaxBlockInterval time.Duration
	// ACL restricts client/application pairs; nil allows all.
	ACL *ordering.AccessControl

	// DataDir roots the deployment's durable state; this node keeps its
	// own under DataDir/<ID>: an executor its write-ahead log and
	// snapshots (wal/, snap/), an orderer its cut-state log (olog/) and —
	// under Raft or Kafka — its consensus log (consensus/). A node
	// rebuilt on the same directory resumes where it stopped. Empty keeps
	// everything in memory.
	//
	// Under PBFT the consensus instance itself stays in memory (view
	// state is not persisted); the cut-state log still recovers block
	// numbers, dedupe generations and pending transactions, and
	// consensus re-orders in-flight traffic.
	DataDir string
	// Genesis seeds an executor's store (a fresh data dir, or memory).
	// The value slices end up shared by every store built from them;
	// stores never mutate values, so callers must not either.
	Genesis []types.KV

	Tunables

	// Trace enables block-lifecycle tracing on an executor; an ops server
	// enables it too (without one nobody can read the histograms, so an
	// executor otherwise keeps its nil, zero-overhead tracer).
	Trace bool
	// OpsAddr, when set, serves /metrics, /statusz, /healthz, /traces and
	// pprof there from Start until Stop (":0" picks a free port).
	OpsAddr string
	// RegisterTransport, when set, adds the transport's collectors to the
	// ops server's registry.
	RegisterTransport func(*telemetry.Registry, telemetry.Labels)
	// OnCommit observes every block an executor finalizes; NotifyClients
	// makes it send each transaction's client a CommitNotifyMsg. Set
	// either on one executor of a deployment, its observer.
	OnCommit      execution.CommitHook
	NotifyClients bool
	// Logf receives diagnostics; nil uses the stdlib logger.
	Logf func(format string, args ...any)
}

// dir returns a subdirectory of the node's data directory, or "" when
// the deployment runs in memory.
func (c *Config) dir(sub string) string {
	if c.DataDir == "" {
		return ""
	}
	return filepath.Join(c.DataDir, string(c.ID), sub)
}

// OrderQuorum returns the number of matching NEWBLOCK messages an
// executor requires: f+1 under PBFT (a correct orderer among them), 1
// under the crash-fault-tolerant protocols, where orderers do not lie.
func OrderQuorum(kind ConsensusKind, orderers int) int {
	if kind == ConsensusPBFT {
		return (orderers-1)/3 + 1
	}
	return 1
}

// GenerateKeys makes the keys of an in-process deployment, one signer per
// identity of every group. With crypto each identity gets an ed25519 key
// pair and the verifier is the key ring holding every public key;
// without it the signers and the verifier are no-ops.
func GenerateKeys(crypto bool, groups ...[]types.NodeID) (map[types.NodeID]cryptoutil.Signer, cryptoutil.Verifier, error) {
	signers := make(map[types.NodeID]cryptoutil.Signer)
	ring := cryptoutil.NewKeyRing()
	for _, id := range slices.Concat(groups...) {
		if !crypto {
			signers[id] = cryptoutil.NoopSigner{NodeID: string(id)}
			continue
		}
		kp, err := cryptoutil.GenerateKeyPair(string(id))
		if err != nil {
			return nil, nil, err
		}
		ring.Add(string(id), kp.Public())
		signers[id] = kp
	}
	if !crypto {
		return signers, cryptoutil.NoopVerifier{}, nil
	}
	return signers, ring, nil
}

// NewConsensus builds this orderer's instance of the configured
// protocol from cfg's ID, Endpoint, Orderers, Consensus, DataDir and
// Logf. Raft and Kafka persist their log under
// the node's consensus/ directory when a data dir is set.
func NewConsensus(cfg Config) (consensus.Node, error) {
	sender := consensus.SenderFunc(cfg.Endpoint.Send)
	dir := cfg.dir("consensus")
	switch cfg.Consensus {
	case ConsensusPBFT:
		return pbft.New(pbft.Config{ID: cfg.ID, Members: cfg.Orderers, Sender: sender}), nil
	case ConsensusRaft:
		return raft.New(raft.Config{ID: cfg.ID, Members: cfg.Orderers, Sender: sender,
			Dir: dir, Logf: cfg.Logf})
	case ConsensusKafka, "":
		return kafkaorder.New(kafkaorder.Config{ID: cfg.ID, Members: cfg.Orderers, Sender: sender,
			Dir: dir, Logf: cfg.Logf})
	default:
		return nil, fmt.Errorf("node: unknown consensus kind %q", cfg.Consensus)
	}
}

// persistConfig maps the knobs onto an executor's durability manager.
func (c *Config) persistConfig() persist.Config {
	return persist.Config{
		Dir:              c.dir(""),
		SnapshotInterval: c.SnapshotInterval,
		SegmentBytes:     c.SegmentBytes,
		Logf:             c.Logf,
	}
}

// stallIntervals is the state-sync watchdog's deadline in block-cut
// intervals: ten cuts without admission or finalization while peers are
// ahead (1 s at the 100 ms default).
const stallIntervals = 10

// stallTimeout arms the state-sync watchdog on a durable node and leaves
// it off in memory. Peers serve sync requests from their WAL and
// snapshots, so in a deployment without a data dir no peer can catch a
// lagging executor up, and there is nothing for the watchdog to ask for.
func (c *Config) stallTimeout() time.Duration {
	if c.DataDir == "" {
		return 0
	}
	interval := c.MaxBlockInterval
	if interval <= 0 {
		interval = ordering.DefaultMaxBlockInterval
	}
	return stallIntervals * interval
}

// executorConfig maps the deployment and its knobs onto the execution
// layer; the caller adds the parts it built (registry, store, ledger,
// durability manager, tracer).
func (c *Config) executorConfig() execution.Config {
	return execution.Config{
		ID:            c.ID,
		Endpoint:      c.Endpoint,
		AgentsOf:      c.Agents,
		Tau:           c.Tau,
		OrderQuorum:   OrderQuorum(c.Consensus, len(c.Orderers)),
		Executors:     c.Executors,
		StallTimeout:  c.stallTimeout(),
		Signer:        c.Signer,
		Verifier:      c.Verifier,
		VerifySigs:    c.Crypto,
		OnCommit:      c.OnCommit,
		NotifyClients: c.NotifyClients,
		Logf:          c.Logf,
	}
}

// ordererConfig maps the deployment and its knobs onto the ordering
// layer; the caller adds the consensus instance.
func (c *Config) ordererConfig() ordering.Config {
	logDir := c.dir("olog")
	return ordering.Config{
		ID:               c.ID,
		Endpoint:         c.Endpoint,
		Executors:        c.Executors,
		Signer:           c.Signer,
		Verifier:         c.Verifier,
		VerifyClientSigs: c.Crypto,
		ACL:              c.ACL,
		MaxBlockTxns:     c.MaxBlockTxns,
		MaxBlockBytes:    c.MaxBlockBytes,
		MaxBlockInterval: c.MaxBlockInterval,
		BuildGraph:       true,
		Dir:              logDir,
		// Raft and Kafka persist their logs and redeliver the committed
		// prefix with stable sequence numbers, so replayed entries can be
		// recognized and skipped by sequence. PBFT restarts its sequence
		// space, so its re-deliveries are deduped by content instead.
		ResumeSeq: logDir != "" && c.Consensus != ConsensusPBFT,
		Logf:      c.Logf,
	}
}

// startOps serves the node's ops endpoints when an address is
// configured. register adds the role's collectors to a fresh registry;
// sc carries the role's status, health and trace hooks.
func (c *Config) startOps(register func(*telemetry.Registry, telemetry.Labels),
	sc telemetry.ServerConfig) (*telemetry.Server, error) {
	if c.OpsAddr == "" {
		return nil, nil
	}
	reg := telemetry.NewRegistry()
	labels := telemetry.Labels{"node": string(c.ID)}
	register(reg, labels)
	if c.RegisterTransport != nil {
		c.RegisterTransport(reg, labels)
	}
	sc.Addr, sc.Registry, sc.Logf = c.OpsAddr, reg, c.Logf
	srv, err := telemetry.StartServer(sc)
	if err != nil {
		return nil, fmt.Errorf("node: ops server of %s: %w", c.ID, err)
	}
	return srv, nil
}

// Executor is a running (or startable) executor node and the state it
// owns. The embedded executor's Stats, Status, Tracer and friends are
// promoted; Start and Stop are the node's.
type Executor struct {
	*execution.Executor
	// Store and Ledger are the node's committed state and chain.
	Store  *state.KVStore
	Ledger *ledger.Ledger
	// Persist is the durability manager and Recovered the recovery
	// provenance (snapshot height, WAL records replayed); both nil
	// without a data dir.
	Persist   *persist.Manager
	Recovered *persist.Recovered

	cfg Config
	ops *telemetry.Server
}

// NewExecutor assembles an executor: contracts installed for the
// applications it serves, store and ledger recovered from its data dir
// (or seeded from genesis in memory), tracer when traced or served.
func NewExecutor(cfg Config) (*Executor, error) {
	fail := func(err error) (*Executor, error) {
		return nil, fmt.Errorf("node: executor %s: %w", cfg.ID, err)
	}
	if err := cfg.Validate(cfg.DataDir != ""); err != nil {
		return fail(err)
	}
	if err := execution.CheckAgents(cfg.Agents); err != nil {
		return fail(err)
	}
	registry := contract.NewRegistry()
	for app, agents := range cfg.Agents {
		if !slices.Contains(agents, cfg.ID) {
			continue
		}
		c, ok := cfg.Contracts[app]
		if !ok {
			return fail(fmt.Errorf("application %s has no contract", app))
		}
		registry.Install(app, c)
	}
	n := &Executor{cfg: cfg}
	if cfg.DataDir != "" {
		var err error
		n.Persist, n.Recovered, err = persist.Open(cfg.persistConfig(), cfg.Genesis)
		if err != nil {
			return fail(err)
		}
		n.Store, n.Ledger = n.Recovered.Store, n.Recovered.Ledger
	} else {
		n.Store = state.Load(cfg.Genesis)
		n.Ledger = ledger.New()
	}
	ec := cfg.executorConfig()
	ec.Registry, ec.Store, ec.Ledger, ec.Persist = registry, n.Store, n.Ledger, n.Persist
	if cfg.Trace || cfg.OpsAddr != "" {
		ec.Tracer = telemetry.NewBlockTracer(0)
	}
	n.Executor = execution.New(ec)
	return n, nil
}

// Start runs the executor and then its ops server. The error is the ops
// server's; the executor is running either way.
func (n *Executor) Start() (err error) {
	n.Executor.Start()
	n.ops, err = n.cfg.startOps(n.RegisterTelemetry, telemetry.ServerConfig{
		Status: func() any { return n.Status() },
		Health: n.Healthy,
		Traces: func() []telemetry.TraceRecord { return n.Tracer().Slowest() },
	})
	return err
}

// Stop shuts the node down: ops server, executor, then the durability
// manager, so every finalized block is on disk when Stop returns. Stop
// is idempotent, and safe on a node that was never started.
func (n *Executor) Stop() {
	closeOps(&n.ops)
	n.Executor.Stop()
	if n.Persist != nil {
		if err := n.Persist.Close(); err != nil && n.cfg.Logf != nil {
			n.cfg.Logf("node: closing durability manager of %s: %v", n.cfg.ID, err)
		}
	}
}

// OpsServer returns the running ops server, or nil. Its Addr resolves a
// ":0" OpsAddr to the bound port.
func (n *Executor) OpsServer() *telemetry.Server { return n.ops }

// Orderer is a running (or startable) orderer node. The embedded
// orderer's Stats, Status and DurableHeight are promoted; Start, Stop
// and Kill are the node's.
type Orderer struct {
	*ordering.Orderer
	cfg Config
	ops *telemetry.Server
}

// NewOrderer assembles an orderer: its consensus instance and the
// ordering core, both recovered from the node's data dir when set.
func NewOrderer(cfg Config) (*Orderer, error) {
	if err := cfg.Validate(cfg.DataDir != ""); err != nil {
		return nil, fmt.Errorf("node: orderer %s: %w", cfg.ID, err)
	}
	cons, err := NewConsensus(cfg)
	if err != nil {
		return nil, err
	}
	oc := cfg.ordererConfig()
	oc.Consensus = cons
	ord, err := ordering.New(oc)
	if err != nil {
		cons.Stop() // release the consensus storage lock
		return nil, fmt.Errorf("node: orderer %s: %w", cfg.ID, err)
	}
	return &Orderer{Orderer: ord, cfg: cfg}, nil
}

// Start runs the orderer and then its ops server. The error is the ops
// server's; the orderer is running either way.
func (n *Orderer) Start() (err error) {
	n.Orderer.Start()
	n.ops, err = n.cfg.startOps(n.RegisterTelemetry, telemetry.ServerConfig{
		Status: func() any { return n.Status() },
		Health: n.Healthy,
	})
	return err
}

// Stop shuts the node down cleanly, syncing its logs.
func (n *Orderer) Stop() {
	closeOps(&n.ops)
	n.Orderer.Stop()
}

// Kill stops the node the way a power loss would: its durable logs drop
// their unsynced bytes, keeping only what fsync already covered.
func (n *Orderer) Kill() {
	closeOps(&n.ops)
	n.Orderer.Kill()
}

// OpsServer returns the running ops server, or nil.
func (n *Orderer) OpsServer() *telemetry.Server { return n.ops }

func closeOps(srv **telemetry.Server) {
	if *srv != nil {
		(*srv).Close()
		*srv = nil
	}
}
