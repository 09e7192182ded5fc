package ox

import (
	"fmt"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/node"
	"parblockchain/internal/ordering"
	"parblockchain/internal/oxii"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// Config describes an OX deployment: the same ordering service as
// ParBlockchain (graphs disabled) in front of sequentially executing
// peers.
type Config struct {
	// Orderers names the ordering service members.
	Orderers []types.NodeID
	// Peers names the executing peers; every peer runs every contract.
	Peers []types.NodeID
	// Clients names the client identities.
	Clients []types.NodeID
	// Contracts maps applications to logic, installed on every peer.
	Contracts map[types.AppID]contract.Contract
	// Consensus picks the ordering protocol (default Kafka-style).
	Consensus node.ConsensusKind
	// Block cut conditions, as in ordering.Config.
	MaxBlockTxns     int
	MaxBlockBytes    int
	MaxBlockInterval time.Duration
	// Crypto enables end-to-end signing/verification.
	Crypto bool
	// Genesis seeds every peer's store.
	Genesis []types.KV
	// OnCommit observes finalized blocks at the observer peer (Peers[0]).
	OnCommit execution.CommitHook
	// Net is the transport; required.
	Net *transport.InMemNetwork
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// Network is a running OX deployment.
type Network struct {
	cfg      Config
	Orderers []*ordering.Orderer
	Peers    []*Peer
	Stores   []*state.KVStore
	Ledgers  []*ledger.Ledger
	signers  map[types.NodeID]cryptoutil.Signer
	router   *oxii.CommitRouter
	clients  map[types.NodeID]*oxii.Client
}

// New builds an OX network. Call Start to run it.
func New(cfg Config) (*Network, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("ox: Config.Net is required")
	}
	if cfg.Consensus == "" {
		cfg.Consensus = node.ConsensusKafka
	}
	signers, verifier, err := node.GenerateKeys(cfg.Crypto, cfg.Orderers, cfg.Peers, cfg.Clients)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:     cfg,
		signers: signers,
		router:  oxii.NewCommitRouter(),
		clients: make(map[types.NodeID]*oxii.Client),
	}
	quorum := node.OrderQuorum(cfg.Consensus, len(cfg.Orderers))

	for i, id := range cfg.Peers {
		ep, err := cfg.Net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		registry := contract.NewRegistry()
		for app, c := range cfg.Contracts {
			registry.Install(app, c)
		}
		store := state.Load(cfg.Genesis)
		led := ledger.New()
		var hook execution.CommitHook
		if i == 0 {
			hook = nw.router.ObserverHook(cfg.OnCommit)
		}
		peer := NewPeer(PeerConfig{
			ID:          id,
			Endpoint:    ep,
			Registry:    registry,
			OrderQuorum: quorum,
			Store:       store,
			Ledger:      led,
			Verifier:    verifier,
			VerifySigs:  cfg.Crypto,
			OnCommit:    hook,
			Logf:        cfg.Logf,
		})
		nw.Peers = append(nw.Peers, peer)
		nw.Stores = append(nw.Stores, store)
		nw.Ledgers = append(nw.Ledgers, led)
	}

	for _, id := range cfg.Orderers {
		ep, err := cfg.Net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		// Baselines stay in memory: no data dir.
		cons, err := node.NewConsensus(node.Config{ID: id, Endpoint: ep, Orderers: cfg.Orderers,
			Consensus: cfg.Consensus, Logf: cfg.Logf})
		if err != nil {
			return nil, err
		}
		ord, err := ordering.New(ordering.Config{
			ID:               id,
			Endpoint:         ep,
			Consensus:        cons,
			Executors:        cfg.Peers,
			Signer:           nw.signers[id],
			Verifier:         verifier,
			VerifyClientSigs: cfg.Crypto,
			MaxBlockTxns:     cfg.MaxBlockTxns,
			MaxBlockBytes:    cfg.MaxBlockBytes,
			MaxBlockInterval: cfg.MaxBlockInterval,
			BuildGraph:       false, // the OX paradigm has no dependency graphs
			Logf:             cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		nw.Orderers = append(nw.Orderers, ord)
	}
	return nw, nil
}

// Start launches every node.
func (nw *Network) Start() {
	for _, p := range nw.Peers {
		p.Start()
	}
	for _, o := range nw.Orderers {
		o.Start()
	}
}

// Stop shuts every node down.
func (nw *Network) Stop() {
	for _, o := range nw.Orderers {
		o.Stop()
	}
	for _, p := range nw.Peers {
		p.Stop()
	}
	nw.router.Shutdown()
}

// Client returns (creating on first use) a client driver. OX clients use
// the identical submit path as ParBlockchain clients: request to an
// orderer, completion observed at the observer peer.
func (nw *Network) Client(id types.NodeID) (*oxii.Client, error) {
	if c, ok := nw.clients[id]; ok {
		return c, nil
	}
	signer, ok := nw.signers[id]
	if !ok {
		return nil, fmt.Errorf("ox: unknown client %s", id)
	}
	ep, err := nw.cfg.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	c := oxii.NewClient(id, ep, signer, nw.cfg.Orderers, nw.router)
	nw.clients[id] = c
	return c, nil
}

// ObserverStore returns the observer peer's state store.
func (nw *Network) ObserverStore() *state.KVStore { return nw.Stores[0] }

// ObserverLedger returns the observer peer's ledger.
func (nw *Network) ObserverLedger() *ledger.Ledger { return nw.Ledgers[0] }
