// Quickstart: boot a complete in-process ParBlockchain network — three
// orderers running the Kafka-style ordering service, three executors each
// the agent of one accounting application — submit a few transfers, and
// inspect the resulting ledger.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A LAN-like in-process network: quarter-millisecond links.
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(250 * time.Microsecond),
	})
	defer net.Close()

	bc, err := oxii.New(oxii.Config{
		Orderers:  []types.NodeID{"o1", "o2", "o3"},
		Executors: []types.NodeID{"e1", "e2", "e3"},
		Clients:   []types.NodeID{"alice-client"},
		Agents: map[types.AppID][]types.NodeID{
			"payments": {"e1"},
			"loyalty":  {"e2"},
			"escrow":   {"e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"payments": contract.NewAccounting(),
			"loyalty":  contract.NewAccounting(),
			"escrow":   contract.NewAccounting(),
		},
		Consensus:        node.ConsensusKafka,
		MaxBlockTxns:     50,
		MaxBlockInterval: 50 * time.Millisecond,
		Crypto:           true,
		Genesis: []types.KV{
			{Key: "payments/alice", Val: contract.EncodeBalance(1_000)},
			{Key: "payments/bob", Val: contract.EncodeBalance(100)},
		},
		Net: net,
	})
	if err != nil {
		return err
	}
	bc.Start()
	defer bc.Stop()

	client, err := bc.Client("alice-client")
	if err != nil {
		return err
	}

	// A valid transfer commits...
	tx := client.Prepare("payments", contract.TransferOp("payments/alice", "payments/bob", 250))
	result, err := client.Do(tx, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("transfer 250 alice->bob: aborted=%v writes=%d\n", result.Aborted, len(result.Writes))

	// ...an overdraft commits "as aborted" (the paper's (x, "abort")).
	tx = client.Prepare("payments", contract.TransferOp("payments/alice", "payments/bob", 1_000_000))
	result, err = client.Do(tx, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("overdraft attempt:        aborted=%v reason=%q\n", result.Aborted, result.AbortReason)

	// Inspect the final state and the hash-chained ledger.
	raw, _ := bc.ObserverStore().Get("payments/alice")
	bal, _ := contract.Balance(raw)
	fmt.Printf("alice's balance: %d\n", bal)

	led := bc.ObserverLedger()
	fmt.Printf("ledger height: %d blocks, %d transactions, chain verify: %v\n",
		led.Height(), led.TxCount(), led.Verify() == nil)
	return nil
}
