package execution

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// harness drives a single executor through raw NEWBLOCK / COMMIT
// messages, playing the role of orderers and peer executors.
type harness struct {
	t       *testing.T
	net     *transport.InMemNetwork
	exec    *Executor
	store   *state.KVStore
	ledger  *ledger.Ledger
	orderer transport.Endpoint
	peer    transport.Endpoint // a remote agent identity ("e2")
	commits chan struct {
		block   *types.Block
		results []types.TxResult
	}
	prevHash types.Hash
	nextNum  uint64
}

// newHarness builds an executor "e1" that is agent for app1; "e2" is the
// (simulated) agent for app2.
func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{t: t}
	h.net = transport.NewInMemNetwork(transport.InMemConfig{})
	execEP, _ := h.net.Endpoint("e1")
	h.orderer, _ = h.net.Endpoint("o1")
	h.peer, _ = h.net.Endpoint("e2")
	registry := contract.NewRegistry()
	registry.Install("app1", contract.NewKV())
	h.store = state.NewKVStore()
	h.ledger = ledger.New()
	h.commits = make(chan struct {
		block   *types.Block
		results []types.TxResult
	}, 64)
	cfg := Config{
		ID:       "e1",
		Endpoint: execEP,
		Registry: registry,
		AgentsOf: map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2"},
		},
		OrderQuorum: 1,
		Executors:   []types.NodeID{"e1", "e2"},
		Store:       h.store,
		Ledger:      h.ledger,
		Workers:     4,
		Signer:      cryptoutil.NoopSigner{NodeID: "e1"},
		Verifier:    cryptoutil.NoopVerifier{},
		OnCommit: func(block *types.Block, results []types.TxResult) {
			h.commits <- struct {
				block   *types.Block
				results []types.TxResult
			}{block, results}
		},
		Logf: func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h.exec = New(cfg)
	h.exec.Start()
	t.Cleanup(func() {
		h.exec.Stop()
		h.net.Close()
	})
	return h
}

func kvTx(app types.AppID, ts uint64, key types.Key, val string) *types.Transaction {
	tx := &types.Transaction{
		App:      app,
		Client:   "c1",
		ClientTS: ts,
		Op:       contract.PutOp(key, val),
	}
	tx.ID = types.TxID(fmt.Sprintf("%s-%d", app, ts))
	return tx
}

// sendBlock builds a block + graph and announces it from the orderer.
func (h *harness) sendBlock(txns []*types.Transaction) *types.Block {
	h.t.Helper()
	msg := h.newBlockMsg(txns)
	if err := h.orderer.Send("e1", msg); err != nil {
		h.t.Fatal(err)
	}
	return msg.Block
}

// graphOf builds the block's dependency graph the way an orderer does,
// from normalized copies of the declared sets: Normalize sorts in place,
// and the transactions themselves are sealed and shared with the
// executors' workers, which read op.Writes concurrently.
func graphOf(txns []*types.Transaction) *depgraph.Graph {
	sets := make([]depgraph.RWSet, len(txns))
	for i, tx := range txns {
		sets[i] = depgraph.RWSet{Reads: slices.Clone(tx.Op.Reads), Writes: slices.Clone(tx.Op.Writes)}
		sets[i].Normalize()
	}
	return depgraph.Build(sets)
}

// newBlockMsg builds the next block + graph as the orderer's NEWBLOCK,
// without sending it.
func (h *harness) newBlockMsg(txns []*types.Transaction) *types.NewBlockMsg {
	block := types.NewBlock(h.nextNum, h.prevHash, txns)
	h.nextNum++
	h.prevHash = block.Hash()
	return &types.NewBlockMsg{
		Block:   block,
		Graph:   graphOf(txns),
		Apps:    block.Apps(),
		Orderer: "o1",
	}
}

// sendCommit delivers remote agent results for app2 transactions.
func (h *harness) sendCommit(blockNum uint64, results []types.TxResult) {
	h.t.Helper()
	msg := &types.CommitMsg{BlockNum: blockNum, Results: results, Executor: "e2"}
	if err := h.peer.Send("e1", msg); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) awaitCommit(timeout time.Duration) ([]types.TxResult, *types.Block) {
	h.t.Helper()
	select {
	case c := <-h.commits:
		return c.results, c.block
	case <-time.After(timeout):
		h.t.Fatal("block did not finalize")
		return nil, nil
	}
}

func TestLocalBlockExecutesAndFinalizes(t *testing.T) {
	h := newHarness(t, nil)
	h.sendBlock([]*types.Transaction{
		kvTx("app1", 1, "a", "1"),
		kvTx("app1", 2, "b", "2"),
	})
	results, _ := h.awaitCommit(5 * time.Second)
	if len(results) != 2 || results[0].Aborted || results[1].Aborted {
		t.Fatalf("results = %+v", results)
	}
	if v, _ := h.store.Get("a"); string(v) != "1" {
		t.Fatal("state not applied")
	}
	if h.ledger.Height() != 1 {
		t.Fatalf("ledger height = %d", h.ledger.Height())
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	h := newHarness(t, nil)
	// tx1 put k=1; tx2 append k+=2 — order matters.
	tx1 := kvTx("app1", 1, "k", "1")
	tx2 := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "2"),
	}
	tx2.ID = "app1-2"
	h.sendBlock([]*types.Transaction{tx1, tx2})
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("k"); string(v) != "12" {
		t.Fatalf("k = %q, want \"12\" (sequential order)", v)
	}
}

func TestRemoteAppBlockNeedsCommitMsgs(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	// No local agent for app2: the block must stall until e2's results
	// arrive.
	select {
	case <-h.commits:
		t.Fatal("block finalized without remote results")
	case <-time.After(100 * time.Millisecond):
	}
	h.sendCommit(block.Header.Number, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}},
	}})
	results, _ := h.awaitCommit(5 * time.Second)
	if results[0].Aborted {
		t.Fatal("remote result should commit")
	}
	if v, _ := h.store.Get("r"); string(v) != "v" {
		t.Fatal("remote write not applied")
	}
}

func TestCommitBeforeBlockIsBuffered(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	// COMMIT races ahead of NEWBLOCK.
	h.sendCommit(0, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}},
	}})
	time.Sleep(50 * time.Millisecond)
	h.sendBlock([]*types.Transaction{remote})
	results, _ := h.awaitCommit(5 * time.Second)
	if results[0].Aborted {
		t.Fatal("buffered commit lost")
	}
}

func TestCrossAppDependencyGatesExecution(t *testing.T) {
	h := newHarness(t, nil)
	// app2's tx writes k; app1's tx appends to k (depends on it).
	remote := kvTx("app2", 1, "k", "base")
	local := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "+local"),
	}
	local.ID = "app1-2"
	block := h.sendBlock([]*types.Transaction{remote, local})
	// The local append must not run before the remote commit arrives.
	select {
	case <-h.commits:
		t.Fatal("finalized early")
	case <-time.After(100 * time.Millisecond):
	}
	h.sendCommit(block.Header.Number, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "k", Val: []byte("base")}},
	}})
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("k"); string(v) != "base+local" {
		t.Fatalf("k = %q, want remote-then-local composition", v)
	}
}

func TestAbortedTransactionCommitsAsAborted(t *testing.T) {
	h := newHarness(t, nil)
	bad := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 1,
		Op: types.Operation{Method: "nonexistent"},
	}
	bad.ID = "bad-1"
	good := kvTx("app1", 2, "g", "1")
	h.sendBlock([]*types.Transaction{bad, good})
	results, _ := h.awaitCommit(5 * time.Second)
	if !results[0].Aborted {
		t.Fatal("invalid method must abort")
	}
	if results[1].Aborted {
		t.Fatal("valid txn must commit")
	}
	if h.exec.Stats().TxAborted != 1 {
		t.Fatalf("aborted counter = %d", h.exec.Stats().TxAborted)
	}
}

func TestBlocksFinalizeInOrder(t *testing.T) {
	h := newHarness(t, nil)
	b0txs := []*types.Transaction{kvTx("app1", 1, "x", "0")}
	b1txs := []*types.Transaction{kvTx("app1", 2, "x", "1")}
	h.sendBlock(b0txs)
	h.sendBlock(b1txs)
	_, blk := h.awaitCommit(5 * time.Second)
	if blk.Header.Number != 0 {
		t.Fatalf("first finalized block = %d", blk.Header.Number)
	}
	_, blk = h.awaitCommit(5 * time.Second)
	if blk.Header.Number != 1 {
		t.Fatalf("second finalized block = %d", blk.Header.Number)
	}
	if v, _ := h.store.Get("x"); string(v) != "1" {
		t.Fatal("later block's write must win")
	}
}

func TestOrderQuorumRequiresMatchingAnnouncements(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.OrderQuorum = 2 })
	o2, _ := h.net.Endpoint("o2")
	block := types.NewBlock(0, types.ZeroHash, []*types.Transaction{kvTx("app1", 1, "q", "v")})
	sets := []depgraph.RWSet{{Writes: []string{"q"}}}
	msg := &types.NewBlockMsg{
		Block: block, Graph: depgraph.Build(sets),
		Apps: block.Apps(), Orderer: "o1",
	}
	_ = h.orderer.Send("e1", msg)
	select {
	case <-h.commits:
		t.Fatal("single announcement must not reach quorum 2")
	case <-time.After(100 * time.Millisecond):
	}
	msg2 := &types.NewBlockMsg{
		Block: block, Graph: msg.Graph, Apps: msg.Apps, Orderer: "o2",
	}
	_ = o2.Send("e1", msg2)
	h.awaitCommit(5 * time.Second)
}

func TestCommitFromNonAgentRejected(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	// e1 itself is not an agent of app2, and neither is a random node:
	// deliver a forged commit from an unauthorized identity.
	rogue, _ := h.net.Endpoint("rogue")
	_ = rogue.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results: []types.TxResult{{TxID: remote.ID, Index: 0,
			Writes: []types.KV{{Key: "r", Val: []byte("evil")}}}},
		Executor: "rogue",
	})
	select {
	case <-h.commits:
		t.Fatal("commit from non-agent accepted")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTauTwoRequiresTwoMatchingResults(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.AgentsOf = map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2", "e3"},
		}
		cfg.Tau = map[types.AppID]int{"app2": 2}
		cfg.Executors = []types.NodeID{"e1", "e2", "e3"}
	})
	e3, _ := h.net.Endpoint("e3")
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	result := types.TxResult{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}}}
	h.sendCommit(block.Header.Number, []types.TxResult{result})
	select {
	case <-h.commits:
		t.Fatal("tau=2 satisfied by a single result")
	case <-time.After(100 * time.Millisecond):
	}
	_ = e3.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results:  []types.TxResult{result},
		Executor: "e3",
	})
	h.awaitCommit(5 * time.Second)
}

func TestMismatchedResultsDoNotCommit(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.AgentsOf = map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2", "e3"},
		}
		cfg.Tau = map[types.AppID]int{"app2": 2}
		cfg.Executors = []types.NodeID{"e1", "e2", "e3"}
	})
	e3, _ := h.net.Endpoint("e3")
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	h.sendCommit(block.Header.Number, []types.TxResult{{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v1")}}}})
	_ = e3.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results: []types.TxResult{{TxID: remote.ID, Index: 0,
			Writes: []types.KV{{Key: "r", Val: []byte("v2")}}}},
		Executor: "e3",
	})
	select {
	case <-h.commits:
		t.Fatal("divergent results must not reach tau matching")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestEmptyBlockFinalizesImmediately(t *testing.T) {
	h := newHarness(t, nil)
	h.sendBlock(nil)
	results, blk := h.awaitCommit(5 * time.Second)
	if len(results) != 0 || blk.Header.Count != 0 {
		t.Fatalf("empty block mishandled: %+v", blk.Header)
	}
}

func TestChainBlockExecutesSequentially(t *testing.T) {
	h := newHarness(t, nil)
	// A chain of appends on one key: final value encodes the order.
	txns := make([]*types.Transaction, 5)
	for i := range txns {
		tx := &types.Transaction{
			App: "app1", Client: "c1", ClientTS: uint64(i + 1),
			Op: contract.AppendOp("chain", fmt.Sprintf("%d", i)),
		}
		tx.ID = types.TxID(fmt.Sprintf("chain-%d", i))
		txns[i] = tx
	}
	h.sendBlock(txns)
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("chain"); string(v) != "01234" {
		t.Fatalf("chain = %q, want \"01234\"", v)
	}
}

func TestCommitMsgFlushedOnCrossAppSuccessor(t *testing.T) {
	h := newHarness(t, nil)
	// app1 writes k, app2 reads k: Algorithm 2 must flush app1's result
	// immediately (cross-app successor) rather than batching to block
	// end.
	local := kvTx("app1", 1, "k", "v")
	remote := &types.Transaction{
		App: "app2", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "+r"),
	}
	remote.ID = "app2-2"
	h.sendBlock([]*types.Transaction{local, remote})
	// e2 (the app2 agent) should receive e1's COMMIT for the local txn
	// even though the block has not finalized.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case msg := <-h.peer.Recv():
			if cm, ok := msg.Payload.(*types.CommitMsg); ok {
				if len(cm.Results) == 1 && cm.Results[0].TxID == local.ID {
					return // flushed as required
				}
			}
		case <-deadline:
			t.Fatal("no COMMIT flush for cross-app dependency")
		}
	}
}

// TestCommitMsgFlushedOnCrossBlockForeignSuccessor is the cross-block
// half of Algorithm 2's flush rule: an app1 result whose successor is an
// app2 transaction of the next in-flight block must be multicast at
// once, not when this node's last transaction of the block finishes.
// Block 0 holds the writer of k and a slow, independent app1
// transaction; block 1 holds an app2 reader of k. Block 1 is announced
// first, so it is installed and admitted in the same actor turn as block
// 0 — before the writer's result can arrive.
func TestCommitMsgFlushedOnCrossBlockForeignSuccessor(t *testing.T) {
	release := make(chan struct{})
	kv := contract.NewKV()
	h := newHarness(t, func(cfg *Config) {
		cfg.Registry = contract.NewRegistry()
		cfg.Registry.Install("app1", contract.Func(func(view state.Reader, op types.Operation) ([]types.KV, error) {
			if op.Params[0] == "slow" {
				<-release
			}
			return kv.Execute(view, op)
		}))
	})
	t.Cleanup(func() { close(release) }) // runs before the harness stops
	writer := kvTx("app1", 1, "k", "v")
	reader := &types.Transaction{App: "app2", Client: "c1", ClientTS: 3, Op: contract.AppendOp("k", "+r")}
	reader.ID = "app2-3"
	block0 := h.newBlockMsg([]*types.Transaction{writer, kvTx("app1", 2, "slow", "x")})
	block1 := h.newBlockMsg([]*types.Transaction{reader})
	for _, msg := range []*types.NewBlockMsg{block1, block0} {
		if err := h.orderer.Send("e1", msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case msg := <-h.peer.Recv():
			if cm, ok := msg.Payload.(*types.CommitMsg); ok && cm.BlockNum == 0 {
				if len(cm.Results) != 1 || cm.Results[0].TxID != writer.ID {
					t.Fatalf("first block-0 COMMIT carries %+v, want only the writer's result", cm.Results)
				}
				return
			}
		case <-deadline:
			t.Fatal("the writer's result waited for the slow transaction: no COMMIT for its foreign successor in block 1")
		}
	}
}
