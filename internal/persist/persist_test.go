package persist

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

var testGenesis = []types.KV{
	{Key: "alice", Val: []byte("100")},
	{Key: "bob", Val: []byte("50")},
}

// chainGen mints a chain of finalization records over a mirror store, so
// tests can drive the WAL exactly the way the executor's finalize
// boundary does.
type chainGen struct {
	store *state.KVStore
	prev  types.Hash
	num   uint64
}

func newChainGen(rec *Recovered) *chainGen {
	return &chainGen{store: rec.Store, prev: rec.Ledger.LastHash(), num: rec.Ledger.Height()}
}

func (g *chainGen) next(delta []types.KV) *BlockRecord {
	block := types.NewBlock(g.num, g.prev, nil)
	g.num++
	g.prev = block.Hash()
	g.store.Apply(delta)
	return &BlockRecord{
		Block:          block,
		Delta:          delta,
		StateHash:      g.store.Hash(),
		EvidenceDigest: types.Hash{0xe1},
		Endorse:        []Endorsement{{Node: "o1", Sig: []byte{1, 2}}},
	}
}

func testConfig(dir string) Config {
	return Config{Dir: dir, Logf: func(string, ...any) {}}
}

func mustOpen(t *testing.T, cfg Config) (*Manager, *Recovered) {
	t.Helper()
	m, rec, err := Open(cfg, testGenesis)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

func TestBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	if rec.Ledger.Height() != 0 || rec.SnapshotHeight != 0 || rec.Replayed != 0 {
		t.Fatalf("fresh open: %+v", rec)
	}
	if v, ok := rec.Store.Get("alice"); !ok || string(v) != "100" {
		t.Fatalf("genesis not applied: %q %v", v, ok)
	}
	wantHash := rec.Store.Hash()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: genesis must come from the height-0 snapshot, not the
	// argument (pass different genesis to prove it is ignored).
	m2, rec2, err := Open(testConfig(dir), []types.KV{{Key: "mallory", Val: []byte("9")}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec2.Store.Hash() != wantHash {
		t.Fatal("reopened store diverged from bootstrap snapshot")
	}
	if _, ok := rec2.Store.Get("mallory"); ok {
		t.Fatal("second genesis leaked into a non-fresh directory")
	}
}

func TestLogAndReplay(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	g := newChainGen(rec)
	deltas := [][]types.KV{
		{{Key: "alice", Val: []byte("90")}, {Key: "carol", Val: []byte("10")}},
		{{Key: "bob", Val: nil}},        // deletion must survive replay
		{{Key: "alice", Val: []byte{}}}, // empty value must stay a value
	}
	for _, d := range deltas {
		if err := m.LogBlock(g.next(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	wantHash := g.store.Hash()
	wantTip := g.prev
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec2 := mustOpen(t, testConfig(dir))
	defer m2.Close()
	if rec2.Ledger.Height() != 3 || rec2.Replayed != 3 || rec2.SnapshotHeight != 0 {
		t.Fatalf("recovered: %+v", rec2)
	}
	if rec2.Store.Hash() != wantHash {
		t.Fatal("replayed store hash diverged")
	}
	if rec2.Ledger.LastHash() != wantTip {
		t.Fatal("replayed ledger tip diverged")
	}
	if err := rec2.Ledger.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec2.Store.Get("bob"); ok {
		t.Fatal("deletion did not survive replay")
	}
	if v, ok := rec2.Store.Get("alice"); !ok || len(v) != 0 {
		t.Fatalf("empty value mangled: %q %v", v, ok)
	}
	// The replayed records carry their evidence through.
	e, err := rec2.Ledger.Get(1)
	if err != nil || e.Block.Header.Number != 1 {
		t.Fatalf("ledger entry 1: %+v %v", e, err)
	}
}

func TestAppendAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	g := newChainGen(rec)
	if err := m.LogBlock(g.next([]types.KV{{Key: "a", Val: []byte("1")}})); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec2 := mustOpen(t, testConfig(dir))
	g2 := newChainGen(rec2)
	if g2.num != 1 {
		t.Fatalf("resume height = %d", g2.num)
	}
	if err := m2.LogBlock(g2.next([]types.KV{{Key: "b", Val: []byte("2")}})); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpen(t, testConfig(dir))
	if rec3.Ledger.Height() != 2 || rec3.Store.Hash() != g2.store.Hash() {
		t.Fatalf("chained reopen diverged: %+v", rec3)
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	m, rec := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	g := newChainGen(rec)
	rec0 := g.next(nil)
	skipped := g.next(nil) // height 1
	if err := m.LogBlock(skipped); err == nil {
		t.Fatal("append of block 1 before block 0 succeeded")
	}
	if err := m.LogBlock(rec0); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	g := newChainGen(rec)
	for i := 0; i < 3; i++ {
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header promising more bytes
	// than were ever written.
	segs, err := listSegmentFiles(filepath.Join(dir, "wal"), "wal")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, "wal", segmentFileName("wal", segs[len(segs)-1]))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.BigEndian.PutUint32(torn[0:], 500) // body never arrives
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, rec2 := mustOpen(t, testConfig(dir))
	if rec2.Ledger.Height() != 3 || rec2.Replayed != 3 {
		t.Fatalf("recovered past torn tail: %+v", rec2)
	}
	// The torn bytes must be gone: appending and re-recovering works.
	g2 := newChainGen(rec2)
	if err := m2.LogBlock(g2.next(nil)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpen(t, testConfig(dir))
	if rec3.Ledger.Height() != 4 {
		t.Fatalf("post-truncation append lost: height %d", rec3.Ledger.Height())
	}
}

func TestCorruptionInNonFinalSegmentFails(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 1 // roll after every record
	m, rec := mustOpen(t, cfg)
	g := newChainGen(rec)
	for i := 0; i < 3; i++ {
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegmentFiles(filepath.Join(dir, "wal"), "wal")
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (%v)", segs, err)
	}
	first := filepath.Join(dir, "wal", segmentFileName("wal", segs[0]))
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a body byte: checksum now fails
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(cfg, testGenesis); err == nil {
		t.Fatal("recovery accepted corruption below the newest segment")
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 4
	cfg.SegmentBytes = 1 // roll after every record: maximal truncation
	m, rec := mustOpen(t, cfg)
	g := newChainGen(rec)
	const blocks = 10
	for i := 0; i < blocks; i++ {
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		m.MaybeSnapshot(uint64(i+1), g.prev, g.store)
		// Settle the background write: a busy-skipped snapshot would
		// shift which heights get snapshotted and flake the layout
		// assertions below.
		m.snapWG.Wait()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot was taken")
	}

	m2, rec2 := mustOpen(t, cfg)
	defer m2.Close()
	if rec2.SnapshotHeight < 4 {
		t.Fatalf("recovered from snapshot %d, want >= 4", rec2.SnapshotHeight)
	}
	if rec2.Replayed >= blocks {
		t.Fatalf("replayed %d records — the full chain, not the tail", rec2.Replayed)
	}
	if got := rec2.SnapshotHeight + uint64(rec2.Replayed); got != blocks {
		t.Fatalf("snapshot %d + replayed %d != %d", rec2.SnapshotHeight, rec2.Replayed, blocks)
	}
	if rec2.Store.Hash() != g.store.Hash() || rec2.Ledger.LastHash() != g.prev {
		t.Fatal("snapshot+tail recovery diverged from the live chain")
	}
	// Pruned history reports ErrPruned, not a silent miss.
	if _, err := rec2.Ledger.Get(0); !errors.Is(err, ledger.ErrPruned) {
		t.Fatalf("Get(0) = %v, want ErrPruned", err)
	}
	// Segments fully below the snapshot are gone.
	segs, err := listSegmentFiles(filepath.Join(dir, "wal"), "wal")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1] <= rec2.SnapshotHeight {
			t.Fatalf("segment %d survived truncation below snapshot %d (segments %v)",
				s, rec2.SnapshotHeight, segs)
		}
	}
}

// TestRollKeepsWALAboveDurableSnapshot fails one background snapshot
// write and then rolls the WAL: the roll must not prune below the failed
// snapshot's height, or recovery from the older snapshot finds a gap.
func TestRollKeepsWALAboveDurableSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 2
	cfg.SegmentBytes = 1 // roll before every append after the first
	m, rec := mustOpen(t, cfg)
	g := newChainGen(rec)
	logBlock := func(i int) {
		t.Helper()
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	logBlock(0)
	logBlock(1)

	// A regular file where snap/ was makes the write fail even as root,
	// where a read-only directory would not.
	snapDir := filepath.Join(dir, "snap")
	held := filepath.Join(dir, "snap.held")
	if err := os.Rename(snapDir, held); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m.MaybeSnapshot(2, g.prev, g.store)
	m.snapWG.Wait()
	if m.Stats().Snapshots != 0 {
		t.Fatal("the snapshot write succeeded; the test needs it to fail")
	}
	logBlock(2) // rolls: the sealed segments hold blocks 0 and 1
	logBlock(3)

	if err := os.Remove(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(held, snapDir); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec2, err := Open(cfg, testGenesis)
	if err != nil {
		t.Fatalf("reopen after a failed snapshot write: %v", err)
	}
	defer m2.Close()
	if rec2.Ledger.Height() != 4 || rec2.SnapshotHeight != 0 || rec2.Replayed != 4 {
		t.Fatalf("recovered %+v, want height 4 from snapshot 0", rec2)
	}
	if rec2.Store.Hash() != g.store.Hash() {
		t.Fatal("recovered state diverged from the live chain")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, testConfig(dir))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(filepath.Join(dir, "snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots: %v %v", snaps, err)
	}
	path := filepath.Join(dir, "snap", "snap-0000000000000000.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(testConfig(dir), testGenesis); err == nil {
		t.Fatal("Open accepted a corrupt snapshot with no fallback")
	}
}

// TestFsyncPolicies: the one sync rule, group commit, gives a batch of
// appends one fsync, and Close leaves every record on disk.
func TestFsyncPolicies(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		cfg := testConfig(t.TempDir())
		m, rec := mustOpen(t, cfg)
		g := newChainGen(rec)
		for i := 0; i < 4; i++ {
			if err := m.LogBlock(g.next(nil)); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.Stats(); st.Syncs != 0 {
			t.Fatalf("%d syncs before Sync: appends must not sync", st.Syncs)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Syncs != 1 {
			t.Fatalf("%d syncs for one batch, want 1", st.Syncs)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2 := mustOpen(t, cfg)
		if rec2.Ledger.Height() != 4 {
			t.Fatalf("height %d after reopen, want 4", rec2.Ledger.Height())
		}
	})
}

// TestOpenRejectsNegativeSnapshotInterval: no interval turns snapshots,
// and with them WAL truncation, off.
func TestOpenRejectsNegativeSnapshotInterval(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SnapshotInterval = -1
	if m, _, err := Open(cfg, testGenesis); err == nil {
		m.Close()
		t.Fatal("Open accepted a negative SnapshotInterval")
	}
}

func TestCrashDiscardsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	g := newChainGen(rec)
	// Two durable blocks, then one appended but never synced: a machine
	// crash must lose exactly the unsynced record.
	for i := 0; i < 2; i++ {
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{9}}})); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	m2, rec2 := mustOpen(t, testConfig(dir))
	defer m2.Close()
	if rec2.Ledger.Height() != 2 {
		t.Fatalf("recovered height %d after crash, want 2 (unsynced block must be lost)",
			rec2.Ledger.Height())
	}
}

func TestCrashAfterSyncLosesNothing(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, testConfig(dir))
	g := newChainGen(rec)
	for i := 0; i < 3; i++ {
		if err := m.LogBlock(g.next([]types.KV{{Key: "k", Val: []byte{byte(i)}}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := mustOpen(t, testConfig(dir))
	if rec2.Ledger.Height() != 3 || rec2.Store.Hash() != g.store.Hash() {
		t.Fatalf("crash after sync lost data: height %d", rec2.Ledger.Height())
	}
}

func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, testConfig(dir))
	if _, _, err := Open(testConfig(dir), testGenesis); err == nil {
		t.Fatal("second Open on a locked directory succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := mustOpen(t, testConfig(dir))
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
