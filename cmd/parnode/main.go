// Command parnode runs one ParBlockchain node — an orderer or an
// executor — over real TCP sockets, as described by a shared cluster
// config file:
//
//	parnode -config cluster.json -id o1
//	parnode -config cluster.json -id e1
//
// The node role is inferred from which section of the config the ID
// appears in. All nodes of a cluster must share the same config file.
// See examples/tcpcluster for a runnable end-to-end setup.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"parblockchain/internal/clustercfg"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/node"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

func main() {
	configPath := flag.String("config", "cluster.json", "cluster description file")
	id := flag.String("id", "", "this node's identity (must appear in the config)")
	opsAddr := flag.String("ops", "", "ops server listen address (overrides the config's opsAddrs entry; empty keeps telemetry off)")
	flag.Parse()
	if err := run(*configPath, types.NodeID(*id), *opsAddr); err != nil {
		log.Fatal(err)
	}
}

func run(configPath string, id types.NodeID, opsAddr string) error {
	if id == "" {
		return fmt.Errorf("parnode: -id is required")
	}
	cfg, err := clustercfg.Load(configPath)
	if err != nil {
		return err
	}
	book := cfg.AddrBook()
	listenAddr, ok := book[id]
	if !ok {
		return fmt.Errorf("parnode: %s not present in %s", id, configPath)
	}
	ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
		ID:         id,
		ListenAddr: listenAddr,
		Peers:      book,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	nc := cfg.Node(id)
	nc.Endpoint = ep
	nc.Signer, nc.Verifier = keys(cfg, id)
	nc.RegisterTransport = ep.RegisterTelemetry
	nc.Logf = log.Printf
	if opsAddr != "" {
		nc.OpsAddr = opsAddr
	}

	switch {
	case has(cfg.Orderers, id):
		n, err := node.NewOrderer(nc)
		if err != nil {
			return err
		}
		log.Printf("orderer %s listening on %s, next block %d", id, ep.Addr(), n.DurableHeight())
		return serve(id, n)
	case has(cfg.Executors, id):
		// The demo cluster runs the accounting application on every
		// agent; extend here for custom contracts.
		nc.Contracts = make(map[types.AppID]contract.Contract, len(nc.Agents))
		for app := range nc.Agents {
			nc.Contracts[app] = contract.NewAccounting()
		}
		if nc.Genesis, err = cfg.GenesisKVs(contract.EncodeBalance); err != nil {
			return err
		}
		n, err := node.NewExecutor(nc)
		if err != nil {
			return err
		}
		log.Printf("executor %s listening on %s at height %d (observer=%v)",
			id, ep.Addr(), n.Ledger.Height(), nc.NotifyClients)
		return serve(id, n)
	default:
		return fmt.Errorf("parnode: %s is neither an orderer nor an executor", id)
	}
}

// serve runs the node until SIGINT or SIGTERM, then stops it cleanly.
func serve(id types.NodeID, n interface {
	Start() error
	Stop()
}) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer n.Stop()
	if err := n.Start(); err != nil {
		return err
	}
	<-sig
	log.Printf("%s shutting down", id)
	return nil
}

func has(m map[string]string, id types.NodeID) bool {
	_, ok := m[string(id)]
	return ok
}

// keys derives deterministic demo keys when crypto is on; otherwise no-op
// signing.
func keys(cfg *clustercfg.Config, id types.NodeID) (cryptoutil.Signer, cryptoutil.Verifier) {
	if !cfg.Crypto {
		return cryptoutil.NoopSigner{NodeID: string(id)}, cryptoutil.NoopVerifier{}
	}
	ring := cryptoutil.NewKeyRing()
	for other := range cfg.AddrBook() {
		ring.Add(string(other), cryptoutil.DeterministicKeyPair(string(other)).Public())
	}
	return cryptoutil.DeterministicKeyPair(string(id)), ring
}
