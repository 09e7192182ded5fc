// Package clustercfg defines the JSON cluster description shared by the
// parnode and parclient binaries: node addresses, application-to-agent
// assignments, and block-cut parameters for a real TCP deployment of
// ParBlockchain.
package clustercfg

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parblockchain/internal/node"
	"parblockchain/internal/types"
)

// Config is the on-disk cluster description.
type Config struct {
	// Orderers maps orderer IDs to host:port listen addresses.
	Orderers map[string]string `json:"orderers"`
	// Executors maps executor IDs to listen addresses.
	Executors map[string]string `json:"executors"`
	// Clients maps client IDs to listen addresses (clients listen for
	// commit notifications).
	Clients map[string]string `json:"clients"`
	// Apps maps application IDs to their agent executor IDs.
	Apps map[string][]string `json:"apps"`
	// Observer is the executor that sends commit notifications to
	// clients; defaults to the first executor in sorted order.
	Observer string `json:"observer,omitempty"`
	// Consensus is "kafka" (crash faults, the default) or "pbft"
	// (Byzantine faults).
	Consensus node.ConsensusKind `json:"consensus,omitempty"`
	// BlockTxns is the block-size cut and BlockIntervalMs the timeout cut
	// in milliseconds; zero takes the ordering defaults (200 / 100 ms,
	// the paper's OXII peak configuration).
	BlockTxns       int `json:"blockTxns,omitempty"`
	BlockIntervalMs int `json:"blockIntervalMs,omitempty"`
	// Tunables holds every performance and durability knob under its JSON
	// name (snapshotIntervalBlocks, segmentBytes).
	node.Tunables
	// DataDir roots the durability subsystem: every node keeps its durable
	// state under DataDir/<node-id> (see node.Config.DataDir), so
	// restarting the whole cluster converges with an always-up one. Empty
	// keeps ledger and state in memory. Relative paths resolve against
	// each node's working directory, so multi-host clusters usually want
	// an absolute path.
	DataDir string `json:"dataDir,omitempty"`
	// OpsAddrs maps node IDs to ops-server listen addresses. A node whose
	// ID appears here serves /metrics (Prometheus text), /statusz (JSON),
	// /healthz, /traces, and net/http/pprof on that address; nodes absent
	// from the map run with telemetry fully disabled (zero overhead).
	OpsAddrs map[string]string `json:"opsAddrs,omitempty"`
	// Crypto enables deterministic demo keys and full verification.
	Crypto bool `json:"crypto,omitempty"`
	// Genesis seeds each executor's store with account balances, each a
	// JSON integer (see Balances). Load leaves it nil and keeps the
	// file's table undecoded for GenesisKVs: only executors read it.
	Genesis Balances `json:"genesis,omitempty"`

	// genesisRaw holds the genesis members Load found, in file order,
	// as bytes; genesis decodes them.
	genesisRaw [][]byte
}

// Load reads and validates a cluster config file. A key Config does not
// declare — a typo, or a knob that was removed — is an error naming it,
// never a setting silently left at its default.
func Load(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("clustercfg: %w", err)
	}
	var cfg Config
	if err := decodeConfig(raw, &cfg); err != nil {
		return nil, fmt.Errorf("clustercfg: parsing %s: %w", path, err)
	}
	if len(cfg.Orderers) == 0 || len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("clustercfg: %s needs at least one orderer and one executor", path)
	}
	for app, agents := range cfg.Apps {
		for _, agent := range agents {
			if _, ok := cfg.Executors[agent]; !ok {
				return nil, fmt.Errorf("clustercfg: app %s lists unknown executor %s", app, agent)
			}
		}
	}
	if cfg.Observer == "" {
		cfg.Observer = string(cfg.ExecutorIDs()[0])
	}
	switch cfg.Consensus {
	case "":
		cfg.Consensus = node.ConsensusKafka
	case node.ConsensusKafka, node.ConsensusPBFT:
	default:
		// "raft" was a plug once; a file that still names it fails here
		// instead of at the first orderer's start.
		return nil, fmt.Errorf("clustercfg: %s: consensus %q is not supported: want %q or %q",
			path, cfg.Consensus, node.ConsensusKafka, node.ConsensusPBFT)
	}
	if err := cfg.Validate(cfg.DataDir != ""); err != nil {
		return nil, fmt.Errorf("clustercfg: %s: %w", path, err)
	}
	for id := range cfg.OpsAddrs {
		if _, ord := cfg.Orderers[id]; ord {
			continue
		}
		if _, exe := cfg.Executors[id]; exe {
			continue
		}
		return nil, fmt.Errorf("clustercfg: %s: opsAddrs lists %s, which is neither an orderer nor an executor", path, id)
	}
	return &cfg, nil
}

// Node describes node id of this cluster to the node package: the
// topology, cut parameters, knobs, data dir and ops address every member
// derives identically from the shared file. The caller adds what the file
// does not hold: endpoint, keys, contracts, encoded genesis and logger.
func (c *Config) Node(id types.NodeID) node.Config {
	return node.Config{
		ID:               id,
		Crypto:           c.Crypto,
		Orderers:         c.OrdererIDs(),
		Executors:        c.ExecutorIDs(),
		Agents:           c.AgentsOf(),
		Consensus:        c.Consensus,
		MaxBlockTxns:     c.BlockTxns,
		MaxBlockInterval: time.Duration(c.BlockIntervalMs) * time.Millisecond,
		DataDir:          c.DataDir,
		Tunables:         c.Tunables,
		OpsAddr:          c.OpsAddrs[string(id)],
		NotifyClients:    string(id) == c.Observer,
	}
}

// NodeDataDir returns the durability directory for one node, or "" when
// the cluster runs in memory.
func (c *Config) NodeDataDir(id types.NodeID) string {
	if c.DataDir == "" {
		return ""
	}
	return filepath.Join(c.DataDir, string(id))
}

// OrdererIDs returns the orderer identities in sorted (deterministic)
// order — consensus membership must be identical at every node.
func (c *Config) OrdererIDs() []types.NodeID { return sortedIDs(c.Orderers) }

// ExecutorIDs returns the executor identities in sorted order.
func (c *Config) ExecutorIDs() []types.NodeID { return sortedIDs(c.Executors) }

// AddrBook returns every node's address keyed by identity, the peer map a
// TCP endpoint needs.
func (c *Config) AddrBook() map[types.NodeID]string {
	book := make(map[types.NodeID]string,
		len(c.Orderers)+len(c.Executors)+len(c.Clients))
	for id, addr := range c.Orderers {
		book[types.NodeID(id)] = addr
	}
	for id, addr := range c.Executors {
		book[types.NodeID(id)] = addr
	}
	for id, addr := range c.Clients {
		book[types.NodeID(id)] = addr
	}
	return book
}

// AgentsOf returns the application-to-agents map in node-ID form.
func (c *Config) AgentsOf() map[types.AppID][]types.NodeID {
	out := make(map[types.AppID][]types.NodeID, len(c.Apps))
	for app, agents := range c.Apps {
		ids := make([]types.NodeID, 0, len(agents))
		for _, a := range agents {
			ids = append(ids, types.NodeID(a))
		}
		out[types.AppID(app)] = ids
	}
	return out
}

// GenesisKVs decodes the genesis balances and converts them to state
// records, in map order: the keys are distinct, so the store state.Load
// builds from them does not depend on their order. A table that breaks
// the balances rules is an error.
func (c *Config) GenesisKVs(encode func(int64) []byte) ([]types.KV, error) {
	genesis, err := c.genesis()
	if err != nil {
		return nil, err
	}
	out := make([]types.KV, 0, len(genesis))
	for k, v := range genesis {
		out = append(out, types.KV{Key: k, Val: encode(v)})
	}
	return out, nil
}

// genesis returns the genesis table. A loaded Config's Genesis is nil,
// and its members are decoded in file order into one table, as
// encoding/json decodes a repeated member into a map field; a Config
// built in code has only Genesis.
func (c *Config) genesis() (Balances, error) {
	genesis := c.Genesis
	for _, raw := range c.genesisRaw {
		if err := genesis.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("clustercfg: %w", err)
		}
	}
	return genesis, nil
}

func sortedIDs(m map[string]string) []types.NodeID {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]types.NodeID, len(ids))
	for i, id := range ids {
		out[i] = types.NodeID(id)
	}
	return out
}
