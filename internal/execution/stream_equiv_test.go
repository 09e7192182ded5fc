package execution

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// This file property-tests the segment-streaming contract: a block
// delivered as BlockSegmentMsg frames plus a BlockSealMsg must leave the
// ledger and the state bit-identical to the same block delivered as one
// monolithic NEWBLOCK, at every segment size and pipeline depth, even
// though the streamed path starts executing before the seal exists. The
// suite runs under -race in CI (a named gating step).

// streamBlock is one block pre-cut into segments the way a streaming
// orderer emits them: the appender's incremental edges per transaction,
// chunked at segTxns boundaries, plus the closing seal.
type streamBlock struct {
	segs []*types.BlockSegmentMsg
	seal *types.BlockSealMsg
}

// cutStream mirrors the orderer's streaming path (ordering.emitSegment +
// cutBlock) for a test-controlled chain of blocks.
func cutStream(blocks [][]*types.Transaction, segTxns int, orderer types.NodeID) []streamBlock {
	out := make([]streamBlock, len(blocks))
	appender := depgraph.NewAppender(depgraph.Standard)
	var prev types.Hash
	for num, txns := range blocks {
		preds := make([][]int32, len(txns))
		for i, tx := range txns {
			set := depgraph.RWSet{
				Reads:  append([]string(nil), tx.Op.Reads...),
				Writes: append([]string(nil), tx.Op.Writes...),
			}
			set.Normalize()
			preds[i] = appender.Append(set)
		}
		appender.Finish()
		cum := types.ZeroHash
		var segs []*types.BlockSegmentMsg
		for start := 0; start < len(txns); start += segTxns {
			end := start + segTxns
			if end > len(txns) {
				end = len(txns)
			}
			seg := &types.BlockSegmentMsg{
				BlockNum: uint64(num),
				Seg:      len(segs),
				Start:    start,
				Txns:     txns[start:end],
				Preds:    preds[start:end],
				Orderer:  orderer,
			}
			cum = types.ChainSegmentDigest(cum, seg.Digest())
			segs = append(segs, seg)
		}
		block := types.NewBlock(uint64(num), prev, txns)
		prev = block.Hash()
		out[num] = streamBlock{
			segs: segs,
			seal: &types.BlockSealMsg{
				Header:   block.Header,
				Segments: len(segs),
				Cum:      cum,
				Apps:     block.Apps(),
				Orderer:  orderer,
			},
		}
	}
	return out
}

// streamRig is a single executor fed raw streaming (or monolithic)
// messages, mirroring runPipelined for the segment path. A rig built
// with newDurableStreamRig additionally owns a persist.Manager, so
// streamed finalization goes through the WAL exactly as in production.
type streamRig struct {
	net     *transport.InMemNetwork
	exec    *Executor
	store   state.Backend
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
func (r *streamRig) shutdown(t testing.TB) {
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
func (r *streamRig) crash(t testing.TB) {
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

func newStreamRig(t testing.TB, depth int, genesis []types.KV, opts ...func(*Config)) *streamRig {
	t.Helper()
	return newDurableStreamRig(t, depth, "", genesis, opts...)
}

// newDurableStreamRig builds a stream rig whose executor finalizes
// through the durability subsystem rooted at dataDir (snapshot every 2
// blocks, so short traces still exercise WAL truncation). An empty
// dataDir yields the plain in-memory rig. Reopening the same directory
// resumes from whatever the previous rig made durable.
func newDurableStreamRig(t testing.TB, depth int, dataDir string, genesis []types.KV,
	opts ...func(*Config)) *streamRig {
	t.Helper()
	r := &streamRig{commits: make(chan []types.TxResult, 64)}
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
	r.store = cfg.Store // an opt may swap the backend (tiered suite)
	r.exec = New(cfg)
	r.exec.Start()
	t.Cleanup(func() { r.shutdown(t) })
	return r
}

func (r *streamRig) send(t testing.TB, payload any) {
	t.Helper()
	if err := r.orderer.Send("e1", payload); err != nil {
		t.Fatal(err)
	}
}

func (r *streamRig) awaitBlocks(t testing.TB, n int) [][]types.TxResult {
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

// runStreamed streams the blocks through one executor, segment by
// segment. With sealLag > 0, each block's seal is withheld until sealLag
// later blocks' segments have been sent, stressing pre-seal buffering and
// the content-done admission gate. A non-empty dataDir runs the streamed
// finalization path through the durability subsystem and, after the run,
// reopens the directory to assert crash recovery reproduces the final
// state from snapshot + WAL tail.
func runStreamed(t *testing.T, depth, segTxns, sealLag int, dataDir string,
	genesis []types.KV, blocks [][]*types.Transaction,
	opts ...func(*Config)) (types.Hash, *ledger.Ledger, [][]types.TxResult) {
	t.Helper()
	r := newDurableStreamRig(t, depth, dataDir, genesis, opts...)
	stream := cutStream(blocks, segTxns, "o1")
	var pendingSeals []*types.BlockSealMsg
	for _, sb := range stream {
		for _, seg := range sb.segs {
			r.send(t, seg)
		}
		pendingSeals = append(pendingSeals, sb.seal)
		if len(pendingSeals) > sealLag {
			r.send(t, pendingSeals[0])
			pendingSeals = pendingSeals[1:]
		}
	}
	for _, seal := range pendingSeals {
		r.send(t, seal)
	}
	finalized := r.awaitBlocks(t, len(blocks))
	hash := r.store.Hash()
	if r.mgr != nil {
		r.shutdown(t)
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

// TestStreamEquivalence asserts, for randomized traces at several
// contention levels and every scheduler, that streaming a block in
// segments of {1, 16, 64} transactions at pipeline depths {1, 4} leaves
// the state hash, the ledger chain, and every per-transaction result
// bit-identical to the monolithic NEWBLOCK path (SegmentTxns=0) and to
// the sequential reference execution.
func TestStreamEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 20
	)
	for _, contention := range []float64{0, 0.4, 1.0} {
		t.Run(fmt.Sprintf("contention=%.0f%%", contention*100), func(t *testing.T) {
			seed := int64(7000 + int(contention*100))
			blocks, genesis := tracedBlocks(seed, contention, numBlocks, blockTxns)
			wantHash, wantResults := refResults(genesis, blocks)

			// Monolithic baseline (SegmentTxns=0) for the ledger chain.
			monoHash, monoLed, _ := runPipelined(t, 4, "", genesis, blocks)
			if monoHash != wantHash {
				t.Fatal("monolithic baseline diverged from sequential reference")
			}
			wantChain := monoLed.LastHash()

			for _, sched := range allSchedulers {
				for _, depth := range []int{1, 4} {
					for _, segTxns := range []int{1, 16, 64} {
						name := fmt.Sprintf("%s/depth=%d/seg=%d", sched, depth, segTxns)
						gotHash, led, finalized := runStreamed(t, depth, segTxns, 0, "", genesis, blocks,
							withScheduler(sched))
						if gotHash != wantHash {
							t.Fatalf("%s: state hash diverged from sequential baseline", name)
						}
						if led.Height() != numBlocks {
							t.Fatalf("%s: ledger height = %d, want %d", name, led.Height(), numBlocks)
						}
						if err := led.Verify(); err != nil {
							t.Fatalf("%s: ledger chain invalid: %v", name, err)
						}
						if led.LastHash() != wantChain {
							t.Fatalf("%s: ledger chain diverged from monolithic path", name)
						}
						for b, results := range finalized {
							if len(results) != len(wantResults[b]) {
								t.Fatalf("%s block %d: %d results, want %d",
									name, b, len(results), len(wantResults[b]))
							}
							for i := range results {
								if results[i].Digest() != wantResults[b][i].Digest() {
									t.Fatalf("%s block %d tx %d: result diverged", name, b, i)
								}
							}
						}
					}
				}

				// Seals lagging two blocks behind their segments: admission must
				// stall at the unsealed tail and resume losslessly.
				gotHash, led, _ := runStreamed(t, 4, 16, 2, "", genesis, blocks, withScheduler(sched))
				if gotHash != wantHash || led.LastHash() != wantChain {
					t.Fatalf("%s: lagged-seal stream diverged", sched)
				}
			}

			// Durability on: streamed finalization through the WAL (group
			// fsync at the finalize boundary, snapshot + truncation mid-run)
			// must stay bit-identical to the in-memory streamed path, at the
			// barrier depth and a pipelined depth (runStreamed additionally
			// reopens the directory and asserts recovery reproduces it).
			for _, depth := range []int{1, 4} {
				gotHash, led, _ := runStreamed(t, depth, 16, 0, t.TempDir(), genesis, blocks)
				if gotHash != wantHash {
					t.Fatalf("durable streamed depth %d: state hash diverged", depth)
				}
				if led.LastHash() != wantChain {
					t.Fatalf("durable streamed depth %d: ledger chain diverged", depth)
				}
			}
		})
	}
}

// TestStreamSegmentsExecuteBeforeSeal pins the point of streaming: a
// segment's transactions execute (speculatively, inside the window)
// while the seal has not arrived, and the block only finalizes once it
// does.
func TestStreamSegmentsExecuteBeforeSeal(t *testing.T) {
	blocks, genesis := tracedBlocks(42, 0, 1, 8)
	r := newStreamRig(t, 4, genesis)
	stream := cutStream(blocks, 4, "o1")
	for _, seg := range stream[0].segs {
		r.send(t, seg)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.Stats().TxExecuted < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("segments did not execute before the seal (executed=%d)",
				r.exec.Stats().TxExecuted)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-r.commits:
		t.Fatal("block finalized without a seal")
	case <-time.After(100 * time.Millisecond):
	}
	if got := r.exec.Stats().SegmentsAdmitted; got != 2 {
		t.Fatalf("SegmentsAdmitted = %d, want 2", got)
	}
	// Speculative results must not leave the node before the content is
	// quorum-validated: a COMMIT multicast is an external effect.
	if got := r.exec.Stats().CommitMsgsSent; got != 0 {
		t.Fatalf("executor multicast %d COMMITs before the seal", got)
	}
	r.send(t, stream[0].seal)
	r.awaitBlocks(t, 1)
	if r.led.Height() != 1 {
		t.Fatalf("ledger height = %d after seal", r.led.Height())
	}
	if got := r.exec.Stats().CommitMsgsSent; got == 0 {
		t.Fatal("no COMMIT flush after the seal validated")
	}
}

// TestStreamSealMismatchHalts: if the seal quorum binds content that
// differs from what the pinned stream delivered (an equivocating
// orderer), the executor must not finalize either version: it waits for
// a candidate matching the seal, and halts if that content contradicts
// the executed prefix.
func TestStreamSealMismatchHalts(t *testing.T) {
	blocks, genesis := tracedBlocks(43, 0, 1, 4)
	r := newStreamRig(t, 4, genesis)
	stream := cutStream(blocks, 2, "o1")
	for _, seg := range stream[0].segs {
		r.send(t, seg)
	}
	seal := *stream[0].seal
	seal.Cum = types.Hash{0xbd} // content the stream cannot match
	r.send(t, &seal)
	select {
	case <-r.commits:
		t.Fatal("executor finalized a block whose seal does not match the stream")
	case <-time.After(200 * time.Millisecond):
	}
	if r.led.Height() != 0 {
		t.Fatalf("ledger advanced to %d on mismatched seal", r.led.Height())
	}
}

// TestStreamGapBreaksStream: a lost segment (possible over TCP reconnect)
// must not corrupt scheduling — the stream is marked broken and, if it
// was feeding speculation, the executor halts instead of executing a
// block with holes.
func TestStreamGapBreaksStream(t *testing.T) {
	blocks, genesis := tracedBlocks(44, 0, 1, 8)
	r := newStreamRig(t, 4, genesis)
	stream := cutStream(blocks, 2, "o1")
	r.send(t, stream[0].segs[0])
	r.send(t, stream[0].segs[2]) // gap: segment 1 missing
	r.send(t, stream[0].seal)
	select {
	case <-r.commits:
		t.Fatal("executor finalized a block streamed with a gap")
	case <-time.After(200 * time.Millisecond):
	}
}

// TestStreamRepinsBeforeAdmission: a broken stream from the first
// orderer must not wedge a block that has not started executing — the
// pin moves to another orderer's healthy stream and the block completes
// from it.
func TestStreamRepinsBeforeAdmission(t *testing.T) {
	blocks, genesis := tracedBlocks(46, 0, 2, 6)
	r := newStreamRig(t, 4, genesis)
	o2, _ := r.net.Endpoint("o2")
	// Block 1 cannot be admitted while block 0 is missing, so everything
	// below buffers pre-admission. o1's stream for block 1 breaks (gap);
	// o2 streams it whole.
	stream := cutStream(blocks, 2, "o1")
	b1segs := stream[1].segs
	r.send(t, b1segs[0])
	r.send(t, b1segs[2]) // gap: o1's stream breaks, pin must move
	for _, seg := range b1segs {
		o2seg := *seg
		o2seg.Orderer = "o2"
		if err := o2.Send("e1", &o2seg); err != nil {
			t.Fatal(err)
		}
	}
	o2seal := *stream[1].seal
	o2seal.Orderer = "o2"
	if err := o2.Send("e1", &o2seal); err != nil {
		t.Fatal(err)
	}
	// Now deliver block 0; both blocks must finalize.
	for _, seg := range stream[0].segs {
		r.send(t, seg)
	}
	r.send(t, stream[0].seal)
	r.awaitBlocks(t, 2)
	if r.led.Height() != 2 {
		t.Fatalf("ledger height = %d, want 2", r.led.Height())
	}
}

// TestInHorizonCommitFloodCapped: COMMIT messages for block numbers
// inside the horizon are buffered only up to the sender's byte budget;
// the rest are dropped and counted.
func TestInHorizonCommitFloodCapped(t *testing.T) {
	oldBudget := maxCommitBytesPerSender
	maxCommitBytesPerSender = 4096
	t.Cleanup(func() { maxCommitBytesPerSender = oldBudget })
	blocks, genesis := tracedBlocks(47, 0, 1, 4)
	r := newStreamRig(t, 4, genesis)
	junk := &types.CommitMsg{
		BlockNum: 5, // within the horizon, never cut in this test
		Results:  []types.TxResult{{TxID: "junk", Index: 0}},
		Executor: "o1",
	}
	perMsg := junk.ApproxSize()
	fits := maxCommitBytesPerSender / perMsg
	const overflow = 100
	for i := 0; i < fits+overflow; i++ {
		r.send(t, junk)
	}
	sets := make([]depgraph.RWSet, len(blocks[0]))
	for i, tx := range blocks[0] {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		sets[i].Normalize()
	}
	block := types.NewBlock(0, types.ZeroHash, blocks[0])
	r.send(t, &types.NewBlockMsg{
		Block:   block,
		Graph:   depgraph.Build(sets, depgraph.Standard),
		Apps:    block.Apps(),
		Orderer: "o1",
	})
	r.awaitBlocks(t, 1)
	if got := r.exec.Stats().MsgsDroppedFuture; got != overflow {
		t.Fatalf("MsgsDroppedFuture = %d, want %d", got, overflow)
	}
	r.exec.Stop()
	if n := len(r.exec.pendingCommits[5]); n != fits {
		t.Fatalf("pendingCommits[5] holds %d entries, want budget-bounded %d", n, fits)
	}
}

// TestStreamAdoptsPeerAfterPinnedOrdererCrash: the orderer feeding a
// block's speculation crashes mid-stream (no gap, no divergence — its
// segments just stop). Another orderer's complete stream plus the seal
// quorum must complete the block, with the executed prefix re-verified,
// so a single crash fault costs no liveness.
func TestStreamAdoptsPeerAfterPinnedOrdererCrash(t *testing.T) {
	blocks, genesis := tracedBlocks(48, 0, 1, 8)
	r := newStreamRig(t, 4, genesis)
	o2, _ := r.net.Endpoint("o2")
	stream := cutStream(blocks, 2, "o1")
	// o1 sends only the first segment (then "crashes"); the executor pins
	// to it and starts executing.
	r.send(t, stream[0].segs[0])
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.Stats().TxExecuted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("first segment did not execute")
		}
		time.Sleep(time.Millisecond)
	}
	// o2 streams the whole block and seals it.
	for _, seg := range stream[0].segs {
		o2seg := *seg
		o2seg.Orderer = "o2"
		if err := o2.Send("e1", &o2seg); err != nil {
			t.Fatal(err)
		}
	}
	o2seal := *stream[0].seal
	o2seal.Orderer = "o2"
	if err := o2.Send("e1", &o2seal); err != nil {
		t.Fatal(err)
	}
	r.awaitBlocks(t, 1)
	if r.led.Height() != 1 {
		t.Fatalf("ledger height = %d after peer adoption", r.led.Height())
	}
}

// TestFarFutureFloodBounded is the bounded-buffering regression: a flood
// of COMMIT and NEWBLOCK messages far beyond the horizon must be dropped
// and counted, not buffered, and must not disturb normal processing.
func TestFarFutureFloodBounded(t *testing.T) {
	blocks, genesis := tracedBlocks(45, 0, 1, 4)
	r := newStreamRig(t, 4, genesis)
	const flood = 1000
	for i := 0; i < flood; i++ {
		r.send(t, &types.CommitMsg{
			BlockNum: uint64(100000 + i),
			Results:  []types.TxResult{{TxID: "junk", Index: 0}},
			Executor: "o1",
		})
	}
	sets := make([]depgraph.RWSet, len(blocks[0]))
	for i, tx := range blocks[0] {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		sets[i].Normalize()
	}
	far := types.NewBlock(99999, types.Hash{1}, nil)
	r.send(t, &types.NewBlockMsg{
		Block: far, Graph: depgraph.Build(nil, depgraph.Standard), Orderer: "o1",
	})
	block := types.NewBlock(0, types.ZeroHash, blocks[0])
	r.send(t, &types.NewBlockMsg{
		Block:   block,
		Graph:   depgraph.Build(sets, depgraph.Standard),
		Apps:    block.Apps(),
		Orderer: "o1",
	})
	r.awaitBlocks(t, 1)
	// The flood preceded the block on a FIFO link, so by finalization it
	// has been fully processed: everything must have been dropped.
	if got := r.exec.Stats().MsgsDroppedFuture; got != flood+1 {
		t.Fatalf("MsgsDroppedFuture = %d, want %d", got, flood+1)
	}
	// Stop the executor so the actor-owned maps are safe to inspect.
	r.exec.Stop()
	if n := len(r.exec.pendingCommits); n != 0 {
		t.Fatalf("pendingCommits holds %d entries after the flood", n)
	}
	if n := len(r.exec.blocks); n != 0 {
		t.Fatalf("blocks map holds %d entries after the flood", n)
	}
}
