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
	"parblockchain/internal/workload"
)

// This file property-tests the pipelining contract: feeding blocks
// through the executor with a window of in-flight blocks (cross-block
// stitching + chained overlays) must leave the ledger and the state
// bit-identical to the strict per-block barrier, which in turn equals
// the sequential OX-style execution of the same blocks. The suite runs
// under -race in CI with the rest of the package.

// equivApps is the application set of the equivalence traces; every app
// is agented on the single executor under test.
var equivApps = []types.AppID{"app1", "app2", "app3"}

// tracedBlocks derives a deterministic block sequence from the workload
// generator: the same seed always cuts the same chain of blocks.
func tracedBlocks(seed int64, contention float64, numBlocks, blockTxns int) ([][]*types.Transaction, []types.KV) {
	return tracedBlocksOpt(seed, contention, false, numBlocks, blockTxns)
}

// tracedBlocksOpt additionally selects the cross-application conflict
// placement (consecutive conflicting transactions alternate applications
// over shared hot records — the chains whose predecessors are non-local
// on a multi-executor deployment, which is what speculation bypasses).
func tracedBlocksOpt(seed int64, contention float64, crossApp bool,
	numBlocks, blockTxns int) ([][]*types.Transaction, []types.KV) {
	gen := workload.New(workload.Config{
		Apps:               equivApps,
		Contention:         contention,
		CrossApp:           crossApp,
		ColdAccountsPerApp: 512,
		Seed:               seed,
	})
	trace := gen.Trace("c1", numBlocks*blockTxns)
	for i, tx := range trace {
		tx.ID = types.TxID(fmt.Sprintf("eq-%d", i))
	}
	blocks := make([][]*types.Transaction, numBlocks)
	for b := range blocks {
		blocks[b] = trace[b*blockTxns : (b+1)*blockTxns]
	}
	return blocks, gen.Genesis()
}

// refResults executes the blocks strictly sequentially — the OX baseline
// — returning the final state hash and every block's per-transaction
// results.
func refResults(genesis []types.KV, blocks [][]*types.Transaction) (types.Hash, [][]types.TxResult) {
	store := state.NewKVStore()
	store.Apply(genesis)
	registry := contract.NewRegistry()
	for _, app := range equivApps {
		registry.Install(app, contract.NewAccounting())
	}
	all := make([][]types.TxResult, len(blocks))
	for b, txns := range blocks {
		overlay := state.NewBlockOverlay(store, txns)
		results := make([]types.TxResult, len(txns))
		for i, tx := range txns {
			r := types.TxResult{TxID: tx.ID, Index: i}
			writes, err := registry.Execute(tx.App, overlay, tx.Op)
			if err != nil {
				r.Aborted = true
				r.AbortReason = err.Error()
			} else {
				r.Writes = writes
				overlay.Record(i, writes)
			}
			results[i] = r
		}
		store.Apply(overlay.Final())
		all[b] = results
	}
	return store.Hash(), all
}

// cutMono builds the monolithic NEWBLOCK of every block, announced by
// the given orderer, with the graph the indexed builder produces.
func cutMono(blocks [][]*types.Transaction, orderer types.NodeID) []*types.NewBlockMsg {
	out := make([]*types.NewBlockMsg, len(blocks))
	var prev types.Hash
	for num, txns := range blocks {
		block := types.NewBlock(uint64(num), prev, txns)
		prev = block.Hash()
		out[num] = &types.NewBlockMsg{
			Block:   block,
			Graph:   graphOf(txns),
			Apps:    block.Apps(),
			Orderer: orderer,
		}
	}
	return out
}

// rig is a single executor fed raw orderer messages by a test endpoint.
// A rig built with newDurableRig additionally owns a persist.Manager, so
// finalization goes through the WAL exactly as in production.
type rig struct {
	net     *transport.InMemNetwork
	exec    *Executor
	store   *state.KVStore
	led     *ledger.Ledger
	mgr     *persist.Manager
	rec     *persist.Recovered // recovery provenance (durable rigs only)
	orderer transport.Endpoint
	commits chan []types.TxResult
	stopped bool
}

// shutdown stops the rig exactly once: executor first (quiescing the WAL
// writer), then the durability manager, then the transport. The
// registered cleanup is a no-op after a manual shutdown or crash.
func (r *rig) shutdown(t testing.TB) {
	t.Helper()
	if r.stopped {
		return
	}
	r.stopped = true
	r.exec.Stop()
	if r.mgr != nil {
		if err := r.mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Close()
}

// crash kills a durable rig the unclean way: the executor stops feeding
// the WAL, then the manager discards every byte that was never fsynced
// (persist.Manager.Crash), as a power loss would. Nothing performs the
// graceful final sync, so only records made durable by the finalize
// path's own group commits survive.
func (r *rig) crash(t testing.TB) {
	t.Helper()
	if r.stopped {
		return
	}
	r.stopped = true
	r.exec.Stop()
	if err := r.mgr.Crash(); err != nil {
		t.Fatal(err)
	}
	r.net.Close()
}

func newRig(t testing.TB, depth int, genesis []types.KV, opts ...func(*Config)) *rig {
	t.Helper()
	return newDurableRig(t, depth, "", genesis, opts...)
}

// newDurableRig builds a rig whose executor finalizes through the
// durability subsystem rooted at dataDir (snapshot every 2 blocks, so
// short traces still exercise WAL truncation). An empty dataDir yields
// the plain in-memory rig. Reopening the same directory resumes from
// whatever the previous rig made durable. opts mutate the executor
// Config after the rig defaults (dispatch order, agents).
func newDurableRig(t testing.TB, depth int, dataDir string, genesis []types.KV,
	opts ...func(*Config)) *rig {
	t.Helper()
	r := &rig{commits: make(chan []types.TxResult, 64)}
	r.net = transport.NewInMemNetwork(transport.InMemConfig{})
	execEP, _ := r.net.Endpoint("e1")
	r.orderer, _ = r.net.Endpoint("o1")
	registry := contract.NewRegistry()
	agents := make(map[types.AppID][]types.NodeID, len(equivApps))
	for _, app := range equivApps {
		registry.Install(app, contract.NewAccounting())
		agents[app] = []types.NodeID{"e1"}
	}
	if dataDir != "" {
		mgr, rec, err := persist.Open(persist.Config{
			Dir:              dataDir,
			SnapshotInterval: 2,
			Logf:             t.Logf,
		}, genesis)
		if err != nil {
			t.Fatal(err)
		}
		r.mgr = mgr
		r.rec = rec
		r.store, r.led = rec.Store, rec.Ledger
	} else {
		r.store = state.NewKVStore()
		r.store.Apply(genesis)
		r.led = ledger.New()
	}
	cfg := Config{
		ID:            "e1",
		Endpoint:      execEP,
		Registry:      registry,
		AgentsOf:      agents,
		OrderQuorum:   1,
		Executors:     []types.NodeID{"e1"},
		Store:         r.store,
		Ledger:        r.led,
		Workers:       6,
		PipelineDepth: depth,
		Signer:        cryptoutil.NoopSigner{NodeID: "e1"},
		Verifier:      cryptoutil.NoopVerifier{},
		Persist:       r.mgr,
		OnCommit: func(_ *types.Block, results []types.TxResult) {
			r.commits <- results
		},
		Logf: func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	r.exec = New(cfg)
	r.exec.Start()
	t.Cleanup(func() { r.shutdown(t) })
	return r
}

func (r *rig) send(t testing.TB, payload any) {
	t.Helper()
	if err := r.orderer.Send("e1", payload); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) awaitBlocks(t testing.TB, n int) [][]types.TxResult {
	t.Helper()
	finalized := make([][]types.TxResult, 0, n)
	for range n {
		select {
		case results := <-r.commits:
			finalized = append(finalized, results)
		case <-time.After(30 * time.Second):
			t.Fatalf("block %d did not finalize", len(finalized))
		}
	}
	return finalized
}

// runPipelined streams the blocks through one executor at the given
// pipeline depth and returns the final state hash, the ledger, and the
// finalized results per block (in finalization order). A non-empty
// dataDir enables the durability subsystem and, after the run, reopens
// the directory to assert crash recovery reproduces the final state.
// opts mutate the executor Config after the rig defaults.
func runPipelined(t *testing.T, depth int, dataDir string, genesis []types.KV,
	blocks [][]*types.Transaction, opts ...func(*Config)) (types.Hash, *ledger.Ledger, [][]types.TxResult) {
	t.Helper()
	r := newDurableRig(t, depth, dataDir, genesis, opts...)
	for _, msg := range cutMono(blocks, "o1") {
		r.send(t, msg)
	}
	finalized := r.awaitBlocks(t, len(blocks))
	hash := r.store.Hash()
	r.shutdown(t)
	if dataDir != "" {
		// Every block is externalized, so every block is durable: a
		// recovery from this directory must land on the same state.
		verifyRecovery(t, dataDir, genesis, hash, r.led)
	}
	return hash, r.led, finalized
}

// verifyRecovery reopens a data directory and asserts the recovered
// store and ledger match the live run bit for bit, and that recovery
// came from a snapshot plus a WAL tail — never a full-chain replay.
func verifyRecovery(t testing.TB, dataDir string, genesis []types.KV,
	wantHash types.Hash, wantLed *ledger.Ledger) {
	t.Helper()
	mgr, rec, err := persist.Open(persist.Config{
		Dir: dataDir, SnapshotInterval: 2, Logf: t.Logf,
	}, genesis)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if rec.Store.Hash() != wantHash {
		t.Fatal("recovered state hash diverged from the live run")
	}
	if rec.Ledger.Height() != wantLed.Height() || rec.Ledger.LastHash() != wantLed.LastHash() {
		t.Fatalf("recovered ledger diverged (height %d vs %d)",
			rec.Ledger.Height(), wantLed.Height())
	}
	if rec.SnapshotHeight == 0 || rec.Replayed >= int(wantLed.Height()) {
		t.Fatalf("recovery replayed the full chain (snapshot %d, replayed %d)",
			rec.SnapshotHeight, rec.Replayed)
	}
}

// dispatchOrder names a ready queue for the equivalence suites: the
// production dependents-first queue (the zero value), or the seeded fake
// (seededQueue) that pops a random queued item after a random delay.
type dispatchOrder struct {
	seeded bool
	seed   int64
}

func (d dispatchOrder) String() string {
	if d.seeded {
		return "seeded"
	}
	return "dependents-first"
}

// allSchedulers enumerates the dispatch orders every equivalence suite
// runs under: reordering the ready set must leave ledger and state
// bit-identical to the sequential baseline on every path.
var allSchedulers = []dispatchOrder{{}, {seeded: true, seed: 1}}

// withScheduler returns a Config option selecting a dispatch order.
func withScheduler(d dispatchOrder) func(*Config) {
	return func(c *Config) {
		if d.seeded {
			c.newQueue = func() scheduler { return newSeededQueue(d.seed) }
		}
	}
}

// TestPipelineEquivalence asserts, for randomized traces at several
// contention levels, pipeline depths 1/2/4/8, and every dispatch order, that
// the pipelined executor's final state hash, ledger chain, and
// per-transaction results are bit-identical to the sequential OX
// baseline.
func TestPipelineEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 20
	)
	depths := []int{1, 2, 4, 8}
	for _, contention := range []float64{0, 0.4, 1.0} {
		for _, sched := range allSchedulers {
			contention, sched := contention, sched
			t.Run(fmt.Sprintf("contention=%.0f%%/%s", contention*100, sched), func(t *testing.T) {
				testPipelineEquivalence(t, contention, sched, depths, numBlocks, blockTxns)
			})
		}
	}
}

func testPipelineEquivalence(t *testing.T, contention float64, sched dispatchOrder,
	depths []int, numBlocks, blockTxns int) {
	seed := int64(1000 + int(contention*100))
	blocks, genesis := tracedBlocks(seed, contention, numBlocks, blockTxns)
	wantHash, wantResults := refResults(genesis, blocks)

	var wantChain types.Hash
	for _, depth := range depths {
		gotHash, led, finalized := runPipelined(t, depth, "", genesis, blocks, withScheduler(sched))
		if gotHash != wantHash {
			t.Fatalf("depth %d: state hash diverged from sequential baseline", depth)
		}
		if led.Height() != uint64(numBlocks) {
			t.Fatalf("depth %d: ledger height = %d, want %d", depth, led.Height(), numBlocks)
		}
		if err := led.Verify(); err != nil {
			t.Fatalf("depth %d: ledger chain invalid: %v", depth, err)
		}
		if wantChain.IsZero() {
			wantChain = led.LastHash()
		} else if led.LastHash() != wantChain {
			t.Fatalf("depth %d: ledger chain diverged across depths", depth)
		}
		for b, results := range finalized {
			if len(results) != len(wantResults[b]) {
				t.Fatalf("depth %d block %d: %d results, want %d",
					depth, b, len(results), len(wantResults[b]))
			}
			for i := range results {
				if results[i].Digest() != wantResults[b][i].Digest() {
					t.Fatalf("depth %d block %d tx %d: result diverged from sequential baseline (aborted=%v/%v)",
						depth, b, i, results[i].Aborted, wantResults[b][i].Aborted)
				}
			}
			// Cross-check the ledger entry carries the same results.
			entry, err := led.Get(uint64(b))
			if err != nil {
				t.Fatal(err)
			}
			for i := range entry.Results {
				if entry.Results[i].Digest() != wantResults[b][i].Digest() {
					t.Fatalf("depth %d block %d tx %d: ledger result diverged", depth, b, i)
				}
			}
		}
	}

	// Durability on: the WAL append + group fsync at the finalize
	// boundary must leave ledger and state bit-identical to the
	// in-memory path at the barrier depth and a pipelined depth
	// (runPipelined additionally asserts recovery reproduces it).
	for _, depth := range []int{1, 4} {
		gotHash, led, _ := runPipelined(t, depth, t.TempDir(), genesis, blocks, withScheduler(sched))
		if gotHash != wantHash {
			t.Fatalf("durable depth %d: state hash diverged from sequential baseline", depth)
		}
		if led.LastHash() != wantChain {
			t.Fatalf("durable depth %d: ledger chain diverged", depth)
		}
	}
}
