package execution

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// benchRig is a single-executor pipeline fed raw NEWBLOCK messages — the
// end-to-end hot path (graph-driven scheduling, worker-pool execution
// against the overlay, commit, store apply) without consensus or network
// latency in the way.
type benchRig struct {
	net     *transport.InMemNetwork
	exec    *Executor
	store   *state.KVStore
	mgr     *persist.Manager
	orderer transport.Endpoint
	commits chan struct{}
	prev    types.Hash
	next    uint64
}

func newBenchRig(b *testing.B, workers int) *benchRig {
	b.Helper()
	return newBenchRigDepth(b, workers, 1, contract.NewKV())
}

// newBenchRigDepth builds a rig with an explicit pipeline depth and
// contract, for the cross-block pipelining benchmarks. opts mutate the
// executor Config after the rig defaults (tracer).
func newBenchRigDepth(b *testing.B, workers, depth int, app1 contract.Contract,
	opts ...func(*Config)) *benchRig {
	b.Helper()
	return newBenchRigDurable(b, workers, depth, app1, "", opts...)
}

// newBenchRigDurable additionally mounts the durability subsystem at
// dataDir (empty = in-memory), for the WAL-on-the-hot-path benchmarks.
func newBenchRigDurable(b *testing.B, workers, depth int, app1 contract.Contract,
	dataDir string, opts ...func(*Config)) *benchRig {
	b.Helper()
	r := &benchRig{commits: make(chan struct{}, 64)}
	r.net = transport.NewInMemNetwork(transport.InMemConfig{})
	execEP, _ := r.net.Endpoint("e1")
	r.orderer, _ = r.net.Endpoint("o1")
	registry := contract.NewRegistry()
	registry.Install("app1", app1)
	led := ledger.New()
	r.store = state.NewKVStore()
	if dataDir != "" {
		mgr, rec, err := persist.Open(persist.Config{
			Dir:  dataDir,
			Logf: func(string, ...any) {},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		r.mgr = mgr
		r.store, led = rec.Store, rec.Ledger
		// The benchmark framework reruns the function with growing b.N on
		// the same data directory; like any restarted node, the rig must
		// resume feeding blocks at its recovered height (a fresh rig that
		// kept announcing from block 0 would have everything dropped as
		// already committed and hang).
		r.next = led.Height()
		r.prev = led.LastHash()
	}
	cfg := Config{
		ID:            "e1",
		Endpoint:      execEP,
		Registry:      registry,
		AgentsOf:      map[types.AppID][]types.NodeID{"app1": {"e1"}},
		OrderQuorum:   1,
		Executors:     []types.NodeID{"e1"},
		Store:         r.store,
		Ledger:        led,
		Workers:       workers,
		PipelineDepth: depth,
		Signer:        cryptoutil.NoopSigner{NodeID: "e1"},
		Verifier:      cryptoutil.NoopVerifier{},
		Persist:       r.mgr,
		OnCommit:      func(*types.Block, []types.TxResult) { r.commits <- struct{}{} },
		Logf:          func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	r.exec = New(cfg)
	r.exec.Start()
	b.Cleanup(func() {
		r.exec.Stop()
		if r.mgr != nil {
			if err := r.mgr.Close(); err != nil {
				b.Fatal(err)
			}
		}
		r.net.Close()
	})
	return r
}

// runBlock announces one block and waits for it to finalize.
func (r *benchRig) runBlock(b *testing.B, txns []*types.Transaction) {
	block := types.NewBlock(r.next, r.prev, txns)
	r.next++
	r.prev = block.Hash()
	msg := &types.NewBlockMsg{
		Block:   block,
		Graph:   graphOf(txns),
		Apps:    block.Apps(),
		Orderer: "o1",
	}
	if err := r.orderer.Send("e1", msg); err != nil {
		b.Fatal(err)
	}
	<-r.commits
}

// runBlocks streams a batch of blocks into the executor without waiting
// between them, then waits for all of them to finalize — the driving
// pattern the cross-block pipeline exists for.
func (r *benchRig) runBlocks(b *testing.B, blocks [][]*types.Transaction) {
	for _, txns := range blocks {
		block := types.NewBlock(r.next, r.prev, txns)
		r.next++
		r.prev = block.Hash()
		msg := &types.NewBlockMsg{
			Block:   block,
			Graph:   graphOf(txns),
			Apps:    block.Apps(),
			Orderer: "o1",
		}
		if err := r.orderer.Send("e1", msg); err != nil {
			b.Fatal(err)
		}
	}
	for range blocks {
		<-r.commits
	}
}

func independentBlock(blockNum, n int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		key := types.Key(fmt.Sprintf("acct-%d", i))
		tx := &types.Transaction{
			App: "app1", Client: "c1", ClientTS: uint64(blockNum*n + i + 1),
			Op: contract.PutOp(key, fmt.Sprintf("v%d", blockNum)),
		}
		tx.ID = types.TxID(fmt.Sprintf("tx-%d-%d", blockNum, i))
		txns[i] = tx
	}
	return txns
}

func chainedBlock(blockNum, n int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		tx := &types.Transaction{
			App: "app1", Client: "c1", ClientTS: uint64(blockNum*n + i + 1),
			Op: contract.AppendOp("hot", "x"),
		}
		tx.ID = types.TxID(fmt.Sprintf("tx-%d-%d", blockNum, i))
		txns[i] = tx
	}
	return txns
}

// BenchmarkExecutorIndependentBlock measures end-to-end finalization of a
// 200-transaction block with an empty dependency graph: the fully
// parallel case the sharded store and lock-free overlay exist for. One
// iteration = one block.
func BenchmarkExecutorIndependentBlock(b *testing.B) {
	const blockTxns = 200
	r := newBenchRig(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runBlock(b, independentBlock(i, blockTxns))
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*blockTxns)/secs, "tx/s")
	}
}

// BenchmarkExecutorChainedBlock is the fully sequential counterpoint: a
// 200-transaction dependency chain on one key, bounding the scheduling
// overhead per dependency edge.
func BenchmarkExecutorChainedBlock(b *testing.B) {
	const blockTxns = 200
	r := newBenchRig(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runBlock(b, chainedBlock(i, blockTxns))
	}
}

// crossChainedBlocks builds blocks that chain across block boundaries:
// transaction 0 of every block appends to a shared "link" key, so each
// block carries a stitched dependency on its predecessor, while the rest
// of the block is a serial append chain on a per-block key. Under the
// per-block barrier the per-block chains execute one block at a time;
// with a deeper pipeline the chains of consecutive in-flight blocks run
// concurrently as soon as the link transaction's predecessor executes.
func crossChainedBlocks(startBlock, numBlocks, n int) [][]*types.Transaction {
	blocks := make([][]*types.Transaction, numBlocks)
	for bn := range blocks {
		abs := startBlock + bn
		txns := make([]*types.Transaction, n)
		for i := range txns {
			op := contract.AppendOp(fmt.Sprintf("hot-%d", abs), "x")
			if i == 0 {
				op = contract.AppendOp("link", "x")
			}
			tx := &types.Transaction{
				App: "app1", Client: "c1", ClientTS: uint64(abs*n + i + 1),
				Op: op,
			}
			tx.ID = types.TxID(fmt.Sprintf("tx-%d-%d", abs, i))
			txns[i] = tx
		}
		blocks[bn] = txns
	}
	return blocks
}

// BenchmarkExecutorPipelined measures cross-block pipelined throughput
// on the chained-across-blocks workload at the barrier depth (1) and the
// default window (4). One iteration = a burst of 4 linked blocks of 32
// transactions each — exactly one pipeline window, small enough that the
// default bench time yields multiple iterations (single-iteration rows
// in BENCH_state.json carry no variance information) — under a 50us
// modeled contract service time (sleep-based, like the paper-calibrated
// bench harness, so the modeled cost parallelizes with goroutines rather
// than host cores).
func BenchmarkExecutorPipelined(b *testing.B) {
	const (
		blockTxns     = 32
		blocksPerIter = 4
	)
	cost := contract.CostModel{Cost: 50 * time.Microsecond}
	app := contract.WithCost(contract.NewKV(), cost)
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := newBenchRigDepth(b, 8, depth, app)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.runBlocks(b, crossChainedBlocks(i*blocksPerIter, blocksPerIter, blockTxns))
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*blocksPerIter*blockTxns)/secs, "tx/s")
			}
		})
	}
}

// skewedBlocks builds the workload shape dependents-first dispatch
// exists for: each block opens with a tail of independent filler
// transactions (unique per-block keys) and closes with a hot chain of
// appends on one shared key, stitched into a single serial chain across
// every in-flight block. The chain is the critical path — chain/blocks
// deep per window — but discovery-order dispatch buries each ready chain
// link behind every queued filler, re-paying the queue drain per link;
// dependents-first dispatch runs a link the moment it frees and lets the
// fillers soak up the remaining workers.
func skewedBlocks(startBlock, numBlocks, tail, chain int) [][]*types.Transaction {
	blocks := make([][]*types.Transaction, numBlocks)
	for bn := range blocks {
		abs := startBlock + bn
		txns := make([]*types.Transaction, 0, tail+chain)
		n := tail + chain
		for i := 0; i < tail; i++ {
			tx := &types.Transaction{
				App: "app1", Client: "c1", ClientTS: uint64(abs*n + i + 1),
				Op: contract.PutOp(types.Key(fmt.Sprintf("cold-%d-%d", abs, i)), "v"),
			}
			tx.ID = types.TxID(fmt.Sprintf("tx-%d-%d", abs, i))
			txns = append(txns, tx)
		}
		for i := 0; i < chain; i++ {
			tx := &types.Transaction{
				App: "app1", Client: "c1", ClientTS: uint64(abs*n + tail + i + 1),
				Op: contract.AppendOp("hotchain", "x"),
			}
			tx.ID = types.TxID(fmt.Sprintf("tx-%d-%d", abs, tail+i))
			txns = append(txns, tx)
		}
		blocks[bn] = txns
	}
	return blocks
}

// BenchmarkExecutorDispatch measures the ready queue on two workload
// shapes at the default pipeline window (4): "chained" — the cross-block
// linked workload of BenchmarkExecutorPipelined, where the ready set is
// mostly uniform — and "skewed" — a hot serial chain threading through
// every block plus independent fillers, where dispatch order decides
// whether the chain (the critical path) stalls behind the fillers. One
// iteration = one 4-block window under a 50us modeled contract service
// time.
func BenchmarkExecutorDispatch(b *testing.B) {
	const (
		tailTxns      = 96
		chainTxns     = 16
		chainBlkTxns  = 32
		blocksPerIter = 4
	)
	cost := contract.CostModel{Cost: 50 * time.Microsecond}
	app := contract.WithCost(contract.NewKV(), cost)
	workloads := []struct {
		name   string
		txns   int
		blocks func(startBlock int) [][]*types.Transaction
	}{
		{"chained", chainBlkTxns, func(start int) [][]*types.Transaction {
			return crossChainedBlocks(start, blocksPerIter, chainBlkTxns)
		}},
		{"skewed", tailTxns + chainTxns, func(start int) [][]*types.Transaction {
			return skewedBlocks(start, blocksPerIter, tailTxns, chainTxns)
		}},
	}
	for _, wl := range workloads {
		b.Run(wl.name, func(b *testing.B) {
			r := newBenchRigDepth(b, 8, 4, app)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.runBlocks(b, wl.blocks(i*blocksPerIter))
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*blocksPerIter*wl.txns)/secs, "tx/s")
			}
		})
	}
}

// BenchmarkExecutorDurable puts the durability subsystem on the finalize
// hot path: the same chained-across-blocks workload as
// BenchmarkExecutorPipelined, in-memory vs WAL-backed (group fsync
// policy), at the per-block barrier (depth 1, one fsync per block) and
// the default window (depth 4, where blocks finalizing as one batch
// share a fsync). The fsyncs/block metric is the group-commit
// amortization; the tx/s gap between mem and wal rows is the durability
// cost. One iteration = a burst of 4 linked blocks of 32 transactions
// (one pipeline window; see BenchmarkExecutorPipelined on iteration
// sizing).
func BenchmarkExecutorDurable(b *testing.B) {
	const (
		blockTxns     = 32
		blocksPerIter = 4
	)
	cost := contract.CostModel{Cost: 50 * time.Microsecond}
	app := contract.WithCost(contract.NewKV(), cost)
	for _, depth := range []int{1, 4} {
		for _, durable := range []bool{false, true} {
			mode := "mem"
			dir := ""
			if durable {
				mode = "wal"
				dir = b.TempDir()
			}
			b.Run(fmt.Sprintf("depth=%d/%s", depth, mode), func(b *testing.B) {
				r := newBenchRigDurable(b, 8, depth, app, dir)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.runBlocks(b, crossChainedBlocks(i*blocksPerIter, blocksPerIter, blockTxns))
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N*blocksPerIter*blockTxns)/secs, "tx/s")
				}
				if r.mgr != nil {
					st := r.mgr.Stats()
					if st.Appends > 0 {
						b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "fsyncs/block")
					}
				}
			})
		}
	}
}
