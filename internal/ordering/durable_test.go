package ordering

import (
	"testing"
	"time"

	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// durableFixture is newFixture with the cut-state log mounted on dir and
// a long block interval, so every cut in these tests is count-driven and
// the entry/cut record sequence is deterministic.
func durableFixture(t *testing.T, dir string, fsync persist.FsyncPolicy, mutate func(*Config)) *fixture {
	t.Helper()
	return newFixture(t, func(cfg *Config) {
		cfg.Dir = dir
		cfg.Fsync = fsync
		cfg.MaxBlockInterval = 10 * time.Second
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// waitLogAppends polls until the orderer's durable log has absorbed n
// appends (entries + cuts), so a test can kill the node knowing exactly
// what reached the log.
func waitLogAppends(t *testing.T, o *Orderer, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for o.Stats().LogAppends < n {
		if time.Now().After(deadline) {
			t.Fatalf("log appends stuck at %d, want %d", o.Stats().LogAppends, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitReplay waits until a restarted orderer has finished replaying its
// log. Replay re-multicasts a recovered block before it applies that
// block's cut record and publishes its counters, so the block can arrive
// first.
func awaitReplay(t *testing.T, o *Orderer) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for o.Stats().RecoveredEntries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("log replay did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableOrdererResumesAfterKill is the core recovery contract: a
// killed orderer replays its log, re-multicasts the recovered block
// bit-identically, restores the pending (uncut) transactions, and
// resumes cutting at height N+1 with an intact hash chain.
func TestDurableOrdererResumesAfterKill(t *testing.T) {
	dir := t.TempDir()
	f1 := durableFixture(t, dir, persist.FsyncAlways, nil)
	for i := 0; i < 3; i++ {
		f1.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	nb0 := f1.nextBlock(t, 2*time.Second)
	if nb0.Block.Header.Number != 0 {
		t.Fatalf("first block number = %d", nb0.Block.Header.Number)
	}
	// Two more transactions stay pending (below MaxBlockTxns, timer far
	// away). FsyncAlways makes their entry records durable on append.
	f1.submit(t, testTx("c1", 4, nil, []types.Key{"k"}))
	f1.submit(t, testTx("c1", 5, nil, []types.Key{"k"}))
	waitLogAppends(t, f1.orderer, 6) // 3 entries + 1 cut + 2 entries
	f1.orderer.Kill()

	// A rebuilt orderer on the same directory replays: the recovered
	// block is re-multicast bit-identically (executors past it drop the
	// duplicate; executors that missed it catch up).
	f2 := durableFixture(t, dir, persist.FsyncAlways, nil)
	nb0r := f2.nextBlock(t, 2*time.Second)
	if nb0r.Block.Hash() != nb0.Block.Hash() {
		t.Fatal("replayed block 0 is not bit-identical to the original")
	}
	awaitReplay(t, f2.orderer)
	if got := f2.orderer.DurableHeight(); got != 1 {
		t.Fatalf("DurableHeight = %d, want 1", got)
	}
	// 6 replayed records: 3 entries, the cut, and the 2 pending entries.
	if got := f2.orderer.Stats().RecoveredEntries; got != 6 {
		t.Fatalf("RecoveredEntries = %d, want 6", got)
	}
	// One more transaction completes the recovered pending pair: the next
	// cut is block 1 — not 0 — and chains onto the recovered hash.
	f2.submit(t, testTx("c1", 6, nil, []types.Key{"k"}))
	nb1 := f2.nextBlock(t, 2*time.Second)
	if nb1.Block.Header.Number != 1 {
		t.Fatalf("post-restart block number = %d, want 1", nb1.Block.Header.Number)
	}
	if len(nb1.Block.Txns) != 3 {
		t.Fatalf("post-restart block has %d txns, want 2 recovered + 1 new", len(nb1.Block.Txns))
	}
	if nb1.Block.Header.PrevHash != nb0.Block.Hash() {
		t.Fatal("hash chain broken across the restart")
	}
}

// TestDurableOrdererGroupFsyncLosesOnlyTail pins the group-commit
// semantics: cut records are fsynced at the cut (never lost), entry
// records between cuts ride the page cache and a crash discards them —
// the durable consensus log below redelivers those entries in a real
// deployment.
func TestDurableOrdererGroupFsyncLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	f1 := durableFixture(t, dir, persist.FsyncGroup, nil)
	for i := 0; i < 3; i++ {
		f1.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	nb0 := f1.nextBlock(t, 2*time.Second)
	f1.submit(t, testTx("c1", 4, nil, []types.Key{"k"}))
	f1.submit(t, testTx("c1", 5, nil, []types.Key{"k"}))
	waitLogAppends(t, f1.orderer, 6)
	f1.orderer.Kill() // drops the unsynced tail: the two pending entries

	f2 := durableFixture(t, dir, persist.FsyncGroup, nil)
	nb0r := f2.nextBlock(t, 2*time.Second)
	if nb0r.Block.Hash() != nb0.Block.Hash() {
		t.Fatal("replayed block 0 diverged")
	}
	awaitReplay(t, f2.orderer)
	if got := f2.orderer.DurableHeight(); got != 1 {
		t.Fatalf("DurableHeight = %d, want 1 (cut record is fsynced at the cut)", got)
	}
	// Only 4 records survive: the 3 entries and the cut. The post-cut
	// tail was unsynced and is gone.
	if got := f2.orderer.Stats().RecoveredEntries; got != 4 {
		t.Fatalf("RecoveredEntries = %d, want 4 (post-cut tail was unsynced)", got)
	}
	// Cutting resumes at 1 with fresh traffic; the lost tail entries are
	// gone from pending, exactly as if the machine had lost power.
	for i := 0; i < 3; i++ {
		f2.submit(t, testTx("c1", uint64(i+6), nil, []types.Key{"k"}))
	}
	nb1 := f2.nextBlock(t, 2*time.Second)
	if nb1.Block.Header.Number != 1 || len(nb1.Block.Txns) != 3 {
		t.Fatalf("post-crash block: number %d txns %d, want 1 and 3",
			nb1.Block.Header.Number, len(nb1.Block.Txns))
	}
	if nb1.Block.Header.PrevHash != nb0.Block.Hash() {
		t.Fatal("hash chain broken across the crash")
	}
}

// TestDurableOrdererLogRotationAndPruning drives the log across many
// segment rolls with a small retention window and verifies (a) replay
// from the pruned log still recovers the correct height, and (b) the
// prune actually removed history (segment count stays bounded).
func TestDurableOrdererLogRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	mutate := func(cfg *Config) {
		cfg.LogSegmentBytes = 1 // every cut rolls first
		cfg.RetainBlocks = 2
	}
	f1 := durableFixture(t, dir, persist.FsyncAlways, mutate)
	const blocks = 6
	var last *types.NewBlockMsg
	for b := 0; b < blocks; b++ {
		for i := 0; i < 3; i++ {
			f1.submit(t, testTx("c1", uint64(b*3+i+1), nil, []types.Key{"k"}))
		}
		last = f1.nextBlock(t, 2*time.Second)
	}
	if last.Block.Header.Number != blocks-1 {
		t.Fatalf("last block number = %d", last.Block.Header.Number)
	}
	f1.orderer.Kill()

	f2 := durableFixture(t, dir, persist.FsyncAlways, mutate)
	// Replay re-multicasts only the retained window, ending at the same
	// tip; the orderer resumes at the full height.
	deadline := time.Now().Add(5 * time.Second)
	for f2.orderer.DurableHeight() != blocks {
		if time.Now().After(deadline) {
			t.Fatalf("DurableHeight = %d, want %d", f2.orderer.DurableHeight(), blocks)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var tip *types.NewBlockMsg
	for {
		done := false
		select {
		case msg := <-f2.exec.Recv():
			if nb, ok := msg.Payload.(*types.NewBlockMsg); ok {
				tip = nb
			}
		case <-time.After(300 * time.Millisecond):
			done = true
		}
		if done {
			break
		}
	}
	if tip == nil {
		t.Fatal("replay re-multicast nothing from the retained window")
	}
	if tip.Block.Hash() != last.Block.Hash() {
		t.Fatal("replayed tip diverged from the original chain")
	}
	if tip.Block.Header.Number < blocks-2 {
		t.Fatalf("replay started below the retention window: tip %d", tip.Block.Header.Number)
	}
	// Cutting continues past the recovered height.
	for i := 0; i < 3; i++ {
		f2.submit(t, testTx("c1", uint64(100+i), nil, []types.Key{"k"}))
	}
	nb := f2.nextBlock(t, 2*time.Second)
	if nb.Block.Header.Number != blocks {
		t.Fatalf("post-restart block number = %d, want %d", nb.Block.Header.Number, blocks)
	}
	if nb.Block.Header.PrevHash != last.Block.Hash() {
		t.Fatal("hash chain broken after pruned-log recovery")
	}
}

// TestInMemoryOrdererHasNoLog pins the compatibility contract: an empty
// Dir keeps the orderer entirely in memory.
func TestInMemoryOrdererHasNoLog(t *testing.T) {
	f := newFixture(t, nil)
	f.submit(t, testTx("c1", 1, nil, []types.Key{"k"}))
	f.nextBlock(t, 2*time.Second)
	s := f.orderer.Stats()
	if s.LogAppends != 0 || s.LogSyncs != 0 || s.DurableHeight != 0 {
		t.Fatalf("in-memory orderer touched a durable log: %+v", s)
	}
}
