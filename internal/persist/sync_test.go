package persist

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"parblockchain/internal/types"
)

// These tests cover the state-sync serving surface: record range reads
// against the live WAL, the truncation floor, snapshot chunking and
// reassembly, and adopting a peer-served snapshot as the local recovery
// point.

// logChain logs n single-write blocks through g and syncs the WAL.
func logChain(t *testing.T, m *Manager, g *chainGen, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		delta := []types.KV{{Key: "k", Val: []byte{byte(g.num)}}}
		if err := m.LogBlock(g.next(delta)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBlocksRangesAndBudget(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	defer m.Close()
	g := newChainGen(rec)
	logChain(t, m, g, 6)

	floor, next := m.SyncStatus()
	if floor != 0 || next != 6 {
		t.Fatalf("SyncStatus = (%d, %d), want (0, 6)", floor, next)
	}

	// Full range: every record, in order, decodable, positionally right.
	recs, err := m.ServeBlocks(0, 1<<20)
	if err != nil || len(recs) != 6 {
		t.Fatalf("ServeBlocks(0) = %d records, %v", len(recs), err)
	}
	for i, raw := range recs {
		dec, err := UnmarshalBlockRecord(raw)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if dec.Block.Header.Number != uint64(i) {
			t.Fatalf("record %d carries block %d", i, dec.Block.Header.Number)
		}
	}

	// Mid-range start.
	recs, err = m.ServeBlocks(4, 1<<20)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ServeBlocks(4) = %d records, %v", len(recs), err)
	}
	if dec, _ := UnmarshalBlockRecord(recs[0]); dec.Block.Header.Number != 4 {
		t.Fatalf("ServeBlocks(4) starts at block %d", dec.Block.Header.Number)
	}

	// At the tip: empty batch, no error.
	if recs, err = m.ServeBlocks(6, 1<<20); err != nil || recs != nil {
		t.Fatalf("ServeBlocks(tip) = %d records, %v", len(recs), err)
	}

	// A one-byte budget still yields exactly one record, so an oversized
	// record cannot wedge a transfer.
	if recs, err = m.ServeBlocks(0, 1); err != nil || len(recs) != 1 {
		t.Fatalf("ServeBlocks(0, 1) = %d records, %v", len(recs), err)
	}
}

func TestServeBlocksBelowFloor(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 2
	cfg.SegmentBytes = 1 // roll per record: maximal truncation
	m, rec := mustOpen(t, cfg)
	defer m.Close()
	g := newChainGen(rec)
	for i := 0; i < 8; i++ {
		logChain(t, m, g, 1)
		m.MaybeSnapshot(g.num, g.prev, g.store)
		m.snapWG.Wait() // snapshots write in the background; settle each
	}

	floor, next := m.SyncStatus()
	if floor == 0 || next != 8 {
		t.Fatalf("SyncStatus = (%d, %d), want truncated floor and tip 8", floor, next)
	}
	if _, err := m.ServeBlocks(0, 1<<20); !errors.Is(err, ErrSyncBelowFloor) {
		t.Fatalf("ServeBlocks below floor = %v, want ErrSyncBelowFloor", err)
	}
	// The floor itself is still servable.
	recs, err := m.ServeBlocks(floor, 1<<20)
	if err != nil || len(recs) == 0 {
		t.Fatalf("ServeBlocks(floor) = %d records, %v", len(recs), err)
	}
	if h, ok := m.NewestSnapshot(); !ok || h == 0 {
		t.Fatalf("NewestSnapshot = (%d, %v) after truncation", h, ok)
	}
}

func TestSnapshotChunkReassemblyAndAdopt(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 2
	m, rec := mustOpen(t, cfg)
	defer m.Close()
	g := newChainGen(rec)
	for i := 0; i < 6; i++ {
		logChain(t, m, g, 1)
		m.MaybeSnapshot(g.num, g.prev, g.store)
		m.snapWG.Wait() // snapshots write in the background; settle each
	}
	height, ok := m.NewestSnapshot()
	if !ok || height == 0 {
		t.Fatalf("NewestSnapshot = (%d, %v)", height, ok)
	}

	// Reassemble from deliberately tiny chunks and verify the whole.
	first, total, err := m.ServeSnapshotChunk(height, 0, 64)
	if err != nil || total == 0 {
		t.Fatalf("chunk 0: %v (total %d)", err, total)
	}
	image := append([]byte(nil), first...)
	for c := uint64(1); c < total; c++ {
		part, gotTotal, err := m.ServeSnapshotChunk(height, c, 64)
		if err != nil || gotTotal != total {
			t.Fatalf("chunk %d: %v (total %d vs %d)", c, err, gotTotal, total)
		}
		image = append(image, part...)
	}
	if _, _, err := m.ServeSnapshotChunk(height, total, 64); err == nil {
		t.Fatal("chunk past the end was served")
	}
	man, snapStore, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatalf("reassembled image failed verification: %v", err)
	}
	if man.Height != height || snapStore.Hash() != man.StateHash {
		t.Fatalf("manifest (%d, %x) does not match image", man.Height, man.StateHash[:4])
	}

	// A tampered image must fail verification.
	bad := append([]byte(nil), image...)
	bad[len(bad)/2] ^= 0x01
	if _, _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("tampered snapshot image passed verification")
	}

	// Adopt the image into a second, fresh node: it becomes that node's
	// recovery point, and a reopen resumes from it.
	dir2 := t.TempDir()
	m2, _ := mustOpen(t, testConfig(dir2))
	if err := m2.AdoptSnapshot(man.Height, image); err != nil {
		t.Fatalf("AdoptSnapshot: %v", err)
	}
	if floor, next := m2.SyncStatus(); floor != man.Height || next != man.Height {
		t.Fatalf("after adoption SyncStatus = (%d, %d), want (%d, %d)",
			floor, next, man.Height, man.Height)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, rec3, err := Open(testConfig(dir2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if h := rec3.Store.Hash(); rec3.Ledger.Height() != man.Height || h != man.StateHash {
		t.Fatalf("reopen after adoption: height %d hash %x, want %d %x",
			rec3.Ledger.Height(), h[:4], man.Height, man.StateHash[:4])
	}
	if v, ok := rec3.Store.Get("k"); !ok || !bytes.Equal(v, []byte{byte(man.Height - 1)}) {
		t.Fatalf("adopted state lost the chain's writes: %v %v", v, ok)
	}
}

// TestOpenRestartsLogBelowSnapshot: an adoption that crashed after its
// snapshot landed but before the WAL was reset leaves the node's old,
// shorter tail on disk. Open must restart the log at the snapshot height
// — appends resume there, and the stale records are no longer served.
func TestOpenRestartsLogBelowSnapshot(t *testing.T) {
	// A peer six blocks ahead, with a servable snapshot at its tip.
	cfg := testConfig(t.TempDir())
	cfg.SnapshotInterval = 6
	peer, rec := mustOpen(t, cfg)
	defer peer.Close()
	g := newChainGen(rec)
	logChain(t, peer, g, 6)
	peer.MaybeSnapshot(g.num, g.prev, g.store)
	peer.snapWG.Wait()
	image, _, err := peer.ServeSnapshotChunk(6, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// The lagging node: two blocks of its own, then the first half of
	// AdoptSnapshot (the image lands) and a crash.
	dir := t.TempDir()
	m, rec2 := mustOpen(t, testConfig(dir))
	logChain(t, m, newChainGen(rec2), 2)
	err = WriteFileAtomic(m.snapPath(6), func(f *os.File) error {
		_, err := f.Write(image)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}

	m2, rec3 := mustOpen(t, testConfig(dir))
	if rec3.SnapshotHeight != 6 || rec3.Replayed != 0 || rec3.Ledger.Height() != 6 {
		t.Fatalf("recovered %+v, want snapshot 6 with nothing replayed", rec3)
	}
	if rec3.Store.Hash() != g.store.Hash() {
		t.Fatal("recovered store is not the adopted snapshot's")
	}
	if floor, next := m2.SyncStatus(); floor != 6 || next != 6 {
		t.Fatalf("SyncStatus = (%d, %d), want (6, 6)", floor, next)
	}
	if _, err := m2.ServeBlocks(0, 1<<20); !errors.Is(err, ErrSyncBelowFloor) {
		t.Fatalf("ServeBlocks(0) = %v, want ErrSyncBelowFloor", err)
	}
	g3 := newChainGen(rec3)
	logChain(t, m2, g3, 1)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, rec4 := mustOpen(t, testConfig(dir))
	defer m3.Close()
	if rec4.Ledger.Height() != 7 || rec4.Replayed != 1 || rec4.Store.Hash() != g3.store.Hash() {
		t.Fatalf("reopen after the restart: %+v", rec4)
	}
}
