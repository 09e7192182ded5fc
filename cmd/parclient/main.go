// Command parclient drives a TCP ParBlockchain cluster (see cmd/parnode)
// with the accounting workload and reports throughput and latency:
//
//	parclient -config cluster.json -id c1 -n 1000 -concurrency 32 -contention 0.2
//
// The client submits transfers to the orderers and receives commit
// notifications from the cluster's observer executor.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/clustercfg"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/oxii"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

func main() {
	configPath := flag.String("config", "cluster.json", "cluster description file")
	id := flag.String("id", "c1", "client identity (must appear in the config)")
	n := flag.Int("n", 100, "number of transactions to commit")
	concurrency := flag.Int("concurrency", 8, "in-flight transactions")
	contention := flag.Float64("contention", 0, "fraction of conflicting transactions")
	timeout := flag.Duration("timeout", 30*time.Second, "per-transaction timeout")
	flag.Parse()
	if err := run(*configPath, types.NodeID(*id), *n, *concurrency, *contention, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(configPath string, id types.NodeID, n, concurrency int,
	contention float64, timeout time.Duration) error {
	cfg, err := clustercfg.Load(configPath)
	if err != nil {
		return err
	}
	book := cfg.AddrBook()
	listen, ok := book[id]
	if !ok {
		return fmt.Errorf("parclient: %s not present in %s", id, configPath)
	}
	ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
		ID:         id,
		ListenAddr: listen,
		Peers:      book,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	var signer cryptoutil.Signer = cryptoutil.NoopSigner{NodeID: string(id)}
	if cfg.Crypto {
		signer = cryptoutil.DeterministicKeyPair(string(id))
	}

	// The ordinary client driver, its waiters resolved from the observer's
	// commit notifications.
	router := oxii.NewCommitRouter()
	go router.ServeNotifications(ep.Recv())
	client := oxii.NewClient(id, ep, signer, cfg.OrdererIDs(), router)

	apps := make([]types.AppID, 0, len(cfg.Apps))
	for app := range cfg.AgentsOf() {
		apps = append(apps, app)
	}
	gen := workload.New(workload.Config{
		Apps:       apps,
		Contention: contention,
		// Cluster genesis funds only the configured accounts; point the
		// generator at a small pool covered by the node-side defaults.
		ColdAccountsPerApp: 1000,
		Seed:               time.Now().UnixNano(),
	})

	// NOTE: parnode seeds stores from cfg.Genesis; fund the generator's
	// accounts there or use "open" transactions first. For the demo
	// cluster, examples/tcpcluster writes a config whose genesis covers
	// this pool.
	var rec telemetry.Histogram
	var aborted, failed atomic.Int64
	work := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		work <- struct{}{}
	}
	close(work)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				tx := gen.Next(id, client.NextTS())
				opStart := time.Now()
				result, err := client.Do(tx, timeout)
				if err != nil {
					failed.Add(1)
					continue
				}
				rec.Observe(int64(time.Since(opStart)))
				if result.Aborted {
					aborted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats := rec.Snapshot().Latency()
	fmt.Printf("committed %d transactions in %s: %.0f tx/s\n",
		stats.Count, elapsed.Round(time.Millisecond),
		float64(stats.Count)/elapsed.Seconds())
	fmt.Printf("latency avg=%s p50=%s p95=%s p99=%s max=%s\n",
		stats.Mean.Round(time.Millisecond), stats.P50.Round(time.Millisecond),
		stats.P95.Round(time.Millisecond), stats.P99.Round(time.Millisecond),
		stats.Max.Round(time.Millisecond))
	fmt.Printf("aborted=%d failed=%d\n", aborted.Load(), failed.Load())
	return nil
}
