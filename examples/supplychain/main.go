// Supply-chain demo: the cross-application workload the paper's
// introduction motivates. Three organizations — a producer, a shipping
// company, and a retailer — each run their own application (smart
// contract confined to their own agent node), yet operate on shared item
// records. Handing an item across organizations creates cross-application
// dependencies inside blocks, so the agents exchange COMMIT messages
// mid-block (Algorithm 2), which is exactly the OXII* regime of Figure 6.
//
//	go run ./examples/supplychain
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

const items = 8

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(250 * time.Microsecond),
	})
	defer net.Close()

	bc, err := oxii.New(oxii.Config{
		Orderers:  []types.NodeID{"o1", "o2", "o3"},
		Executors: []types.NodeID{"producer-node", "shipper-node", "retailer-node"},
		Clients:   []types.NodeID{"ops"},
		Agents: map[types.AppID][]types.NodeID{
			"producer": {"producer-node"},
			"shipper":  {"shipper-node"},
			"retailer": {"retailer-node"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"producer": contract.NewSupplyChain(),
			"shipper":  contract.NewSupplyChain(),
			"retailer": contract.NewSupplyChain(),
		},
		MaxBlockTxns:     16,
		MaxBlockInterval: 30 * time.Millisecond,
		Crypto:           true,
		Net:              net,
	})
	if err != nil {
		return err
	}
	bc.Start()
	defer bc.Stop()

	client, err := bc.Client("ops")
	if err != nil {
		return err
	}

	// Move every item through the full chain of custody. Each item's
	// four transactions target three different applications but one
	// shared record, producing cross-application dependency chains.
	var wg sync.WaitGroup
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("item%03d", i)
		wg.Add(1)
		go func(item string) {
			defer wg.Done()
			steps := []struct {
				app types.AppID
				op  types.Operation
			}{
				{"producer", contract.CreateItemOp(item, "producer")},
				{"producer", contract.ShipOp(item, "producer", "shipper")},
				{"shipper", contract.ReceiveOp(item, "shipper")},
				{"shipper", contract.ShipOp(item, "shipper", "retailer")},
				{"retailer", contract.ReceiveOp(item, "retailer")},
			}
			for _, step := range steps {
				tx := client.Prepare(step.app, step.op)
				result, err := client.Do(tx, 10*time.Second)
				if err != nil {
					log.Printf("%s: %v", item, err)
					return
				}
				if result.Aborted {
					log.Printf("%s: %s aborted: %s", item, step.op.Method, result.AbortReason)
					return
				}
			}
		}(item)
	}
	wg.Wait()

	// Every item should now be delivered at the retailer.
	delivered := 0
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("item%03d", i)
		raw, ok := bc.ObserverStore().Get(item)
		if !ok {
			continue
		}
		fmt.Printf("%s -> %s\n", item, raw)
		if string(raw) == "retailer|delivered|5" {
			delivered++
		}
	}
	fmt.Printf("%d/%d items delivered; cross-application COMMIT exchanges made it possible\n",
		delivered, items)
	for i, e := range bc.Executors {
		fmt.Printf("agent %d sent %d COMMIT multicasts\n", i+1, e.Stats().CommitMsgsSent)
	}
	return nil
}
