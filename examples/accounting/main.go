// Accounting demo: the paper's evaluation workload on a knob. Drives a
// ParBlockchain network with closed-loop clients at a chosen contention
// degree and prints live throughput, the dependency-graph shapes the
// orderers produce, and executor statistics.
//
//	go run ./examples/accounting -contention 0.8 -clients 200 -secs 5
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

func main() {
	contention := flag.Float64("contention", 0.2, "fraction of conflicting transactions [0,1]")
	crossApp := flag.Bool("crossapp", false, "place conflicts across applications (the paper's OXII*)")
	clients := flag.Int("clients", 100, "closed-loop client concurrency")
	secs := flag.Int("secs", 5, "run duration in seconds")
	flag.Parse()
	if err := run(*contention, *crossApp, *clients, *secs); err != nil {
		log.Fatal(err)
	}
}

func run(contention float64, crossApp bool, clients, secs int) error {
	apps := []types.AppID{"app1", "app2", "app3"}
	gen := workload.New(workload.Config{
		Apps:       apps,
		Contention: contention,
		CrossApp:   crossApp,
		Seed:       42,
	})

	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(250 * time.Microsecond),
	})
	defer net.Close()

	var committed, aborted atomic.Int64
	cost := contract.CostModel{Cost: 500 * time.Microsecond}
	cfg := oxii.Config{
		Orderers:  []types.NodeID{"o1", "o2", "o3"},
		Executors: []types.NodeID{"e1", "e2", "e3"},
		Clients:   []types.NodeID{"load"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"e1"}, "app2": {"e2"}, "app3": {"e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.WithCost(contract.NewAccounting(), cost),
			"app2": contract.WithCost(contract.NewAccounting(), cost),
			"app3": contract.WithCost(contract.NewAccounting(), cost),
		},
		MaxBlockTxns:     200,
		MaxBlockInterval: 100 * time.Millisecond,
		Genesis:          gen.Genesis(),
		Net:              net,
		OnCommit: func(block *types.Block, results []types.TxResult) {
			// Rebuild the graph the orderers attached to the block.
			sets := make([]depgraph.RWSet, len(block.Txns))
			for i, tx := range block.Txns {
				sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
				sets[i].Normalize()
			}
			graph := depgraph.Build(sets)
			fmt.Printf("block %3d: %3d txns, %4d graph edges, depth %3d, width %3d\n",
				block.Header.Number, len(block.Txns), graph.EdgeCount(),
				graph.CriticalPathLen(), graph.MaxWidth())
			for i := range results {
				if results[i].Aborted {
					aborted.Add(1)
				} else {
					committed.Add(1)
				}
				_ = i
			}
		},
	}
	bc, err := oxii.New(cfg)
	if err != nil {
		return err
	}
	bc.Start()
	defer bc.Stop()

	client, err := bc.Client("load")
	if err != nil {
		return err
	}

	fmt.Printf("driving %d clients at %.0f%% contention (crossApp=%v) for %ds...\n",
		clients, contention*100, crossApp, secs)
	stop := time.Now().Add(time.Duration(secs) * time.Second)
	var wg sync.WaitGroup
	var ts atomic.Uint64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				tx := gen.Next("load", ts.Add(1))
				if _, err := client.Do(tx, 30*time.Second); err != nil {
					return // network shutting down
				}
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("\ncommitted %d (aborted %d) in %s -> %.0f tx/s\n",
		committed.Load(), aborted.Load(), elapsed.Round(time.Millisecond),
		float64(committed.Load())/elapsed.Seconds())
	for i, e := range bc.Executors {
		s := e.Stats()
		fmt.Printf("executor %d: executed=%d committed=%d commit-multicasts=%d blocks=%d\n",
			i+1, s.TxExecuted, s.TxCommitted, s.CommitMsgsSent, s.BlocksCommitted)
	}
	return nil
}
