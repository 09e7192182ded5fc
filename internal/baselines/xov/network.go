package xov

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

// Config describes an XOV deployment.
type Config struct {
	// Orderers names the ordering service members.
	Orderers []types.NodeID
	// Peers names all validating peers; those listed in Agents also
	// endorse.
	Peers []types.NodeID
	// Clients names the client identities.
	Clients []types.NodeID
	// Agents maps each application to its endorser subset of Peers.
	Agents map[types.AppID][]types.NodeID
	// Contracts maps applications to logic, installed on their
	// endorsers.
	Contracts map[types.AppID]contract.Contract
	// Tau is the endorsement policy size per application (default 1).
	Tau map[types.AppID]int
	// Consensus picks the ordering protocol (default Kafka-style).
	Consensus node.ConsensusKind
	// Block cut conditions, as in ordering.Config, except that
	// MaxBlockTxns defaults to 100: the paper finds XOV's peak around 100
	// transactions per block.
	MaxBlockTxns     int
	MaxBlockBytes    int
	MaxBlockInterval time.Duration
	// MaxClientRetries bounds MVCC-abort resubmission (default 25).
	MaxClientRetries int
	// Crypto enables end-to-end signing/verification.
	Crypto bool
	// Genesis seeds every peer's store.
	Genesis []types.KV
	// OnCommit observes validated blocks at the observer peer (Peers[0]).
	OnCommit execution.CommitHook
	// Net is the transport; required.
	Net *transport.InMemNetwork
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// Network is a running XOV deployment.
type Network struct {
	cfg      Config
	Orderers []*ordering.Orderer
	Peers    []*Peer
	Stores   []*state.KVStore
	Ledgers  []*ledger.Ledger
	signers  map[types.NodeID]cryptoutil.Signer
	router   *oxii.CommitRouter
	clients  map[types.NodeID]*Client
}

// New builds an XOV network. Call Start to run it.
func New(cfg Config) (*Network, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("xov: Config.Net is required")
	}
	if cfg.Consensus == "" {
		cfg.Consensus = node.ConsensusKafka
	}
	if cfg.MaxBlockTxns <= 0 {
		cfg.MaxBlockTxns = 100
	}
	signers, verifier, err := node.GenerateKeys(cfg.Crypto, cfg.Orderers, cfg.Peers, cfg.Clients)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:     cfg,
		signers: signers,
		router:  oxii.NewCommitRouter(),
		clients: make(map[types.NodeID]*Client),
	}
	quorum := node.OrderQuorum(cfg.Consensus, len(cfg.Orderers))

	for i, id := range cfg.Peers {
		ep, err := cfg.Net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		registry := contract.NewRegistry()
		for app, agents := range cfg.Agents {
			for _, agent := range agents {
				if agent == id {
					registry.Install(app, cfg.Contracts[app])
				}
			}
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
			AgentsOf:    cfg.Agents,
			Tau:         cfg.Tau,
			OrderQuorum: quorum,
			Store:       store,
			Ledger:      led,
			Signer:      nw.signers[id],
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
		// The same graph-less ordering service as OX: envelopes are
		// opaque signed transactions to it.
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
	for _, c := range nw.clients {
		c.Stop()
	}
	nw.router.Shutdown()
}

// Client returns (creating on first use) an XOV client driver.
func (nw *Network) Client(id types.NodeID) (*Client, error) {
	if c, ok := nw.clients[id]; ok {
		return c, nil
	}
	signer, ok := nw.signers[id]
	if !ok {
		return nil, fmt.Errorf("xov: unknown client %s", id)
	}
	ep, err := nw.cfg.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	c := NewClient(ClientConfig{
		ID:         id,
		Endpoint:   ep,
		Signer:     signer,
		Orderers:   nw.cfg.Orderers,
		Agents:     nw.cfg.Agents,
		Tau:        nw.cfg.Tau,
		Router:     nw.router,
		MaxRetries: nw.cfg.MaxClientRetries,
	})
	nw.clients[id] = c
	return c, nil
}

// ObserverStore returns the observer peer's state store.
func (nw *Network) ObserverStore() *state.KVStore { return nw.Stores[0] }

// ObserverLedger returns the observer peer's ledger.
func (nw *Network) ObserverLedger() *ledger.Ledger { return nw.Ledgers[0] }

// TotalAborts sums validation aborts across peers divided per peer (the
// observer's count, since all peers validate identically).
func (nw *Network) TotalAborts() uint64 { return nw.Peers[0].Aborted() }
