// TCP cluster demo: runs a full ParBlockchain deployment over real
// loopback TCP sockets — three Kafka-style orderers, three executors
// (one application each), and a client — all inside one process but
// communicating exclusively through the TCP transport, built by the same
// node constructors the parnode binary uses across machines.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/node"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	orderers := []types.NodeID{"o1", "o2", "o3"}
	executors := []types.NodeID{"e1", "e2", "e3"}
	const client = types.NodeID("c1")
	ids := append(append([]types.NodeID{client}, orderers...), executors...)

	// Bind every node to an ephemeral loopback port, then share the
	// resulting address book.
	endpoints := make(map[types.NodeID]*transport.TCPEndpoint, len(ids))
	book := make(map[types.NodeID]string, len(ids))
	for _, id := range ids {
		ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
			ID:         id,
			ListenAddr: "127.0.0.1:0",
			Peers:      book, // shared map: filled below before any Send
		})
		if err != nil {
			return err
		}
		endpoints[id] = ep
		book[id] = ep.Addr()
		defer ep.Close()
	}

	gen := workload.New(workload.Config{
		Apps:               []types.AppID{"app1", "app2", "app3"},
		ColdAccountsPerApp: 200,
		Seed:               7,
	})

	// What every node of the deployment shares; each gets its own
	// identity below.
	shared := node.Config{
		Verifier:  cryptoutil.NoopVerifier{},
		Orderers:  orderers,
		Executors: executors,
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"e1"}, "app2": {"e2"}, "app3": {"e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(), "app2": contract.NewAccounting(), "app3": contract.NewAccounting(),
		},
		MaxBlockTxns:     20,
		MaxBlockInterval: 50 * time.Millisecond,
		Genesis:          gen.Genesis(),
	}
	identity := func(id types.NodeID) node.Config {
		nc := shared
		nc.ID, nc.Endpoint = id, endpoints[id]
		nc.Signer = cryptoutil.NoopSigner{NodeID: string(id)}
		return nc
	}

	execNodes := make([]*node.Executor, 0, len(executors))
	for i, id := range executors {
		nc := identity(id)
		nc.NotifyClients = i == 0 // the observer
		n, err := node.NewExecutor(nc)
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		defer n.Stop()
		execNodes = append(execNodes, n)
	}
	for _, id := range orderers {
		n, err := node.NewOrderer(identity(id))
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		defer n.Stop()
	}

	// Client: the ordinary driver, its waiters resolved from the
	// observer's commit notifications.
	router := oxii.NewCommitRouter()
	go router.ServeNotifications(endpoints[client].Recv())
	cl := oxii.NewClient(client, endpoints[client], cryptoutil.NoopSigner{NodeID: string(client)}, orderers, router)

	const total = 60
	start := time.Now()
	var wg sync.WaitGroup
	var committed atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			result, err := cl.Do(tx, 20*time.Second)
			if err != nil {
				log.Print(err)
			} else if !result.Aborted {
				committed.Add(1)
			}
		}(gen.Next(client, cl.NextTS()))
	}
	wg.Wait()
	fmt.Printf("committed %d/%d transfers over real TCP in %s\n",
		committed.Load(), total, time.Since(start).Round(time.Millisecond))
	for i, e := range execNodes {
		s := e.Stats()
		fmt.Printf("executor e%d: executed=%d blocks=%d\n", i+1, s.TxExecuted, s.BlocksCommitted)
	}
	return nil
}
