package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parblockchain/internal/types"
)

// On-disk compatibility is pinned, not assumed: testdata/compat was
// written by the commit before the executor WAL moved onto RecordLog
// (PR 21, 32d99cd) and must keep recovering to what that commit itself
// recovered (expected.json), and the same inputs must keep producing the
// same bytes.
//
// testdata/compat/memory is a memory-backend data directory: the genesis
// snapshot, nine blocks of compatDelta over five WAL segments
// (SegmentBytes 400), a second snapshot at height 5 that landed without
// its prune (mid-segment, so replay must skip records inside a kept
// segment), and a torn 12-byte frame after the last record.
// testdata/compat/tiered.snap is a height-7 snapshot in the retired
// tiered format (magic PBSNAP02), written by the last commit that had a
// tiered state backend.

type compatExpected struct {
	Height         uint64   `json:"height"`
	SnapshotHeight uint64   `json:"snapshotHeight"`
	Replayed       int      `json:"replayed"`
	TipHash        string   `json:"tipHash"`
	StateHash      string   `json:"stateHash"`
	Segments       []uint64 `json:"segments"`
	SegmentBytes   int      `json:"segmentBytes"`
	TornBytes      int      `json:"tornBytes"`
}

func loadCompatExpected(t *testing.T) compatExpected {
	t.Helper()
	raw, err := os.ReadFile("testdata/compat/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var exp compatExpected
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

func compatDelta(i int) []types.KV {
	kvs := []types.KV{{Key: fmt.Sprintf("k%02d", i%5), Val: []byte(fmt.Sprintf("v%03d", i))}}
	switch i % 4 {
	case 1:
		kvs = append(kvs, types.KV{Key: "bob", Val: nil})
	case 2:
		kvs = append(kvs, types.KV{Key: "empty", Val: []byte{}})
	}
	return kvs
}

func TestWALCompatRecoversParentDirectory(t *testing.T) {
	exp := loadCompatExpected(t)
	// Open truncates, locks and appends: work on a copy of the fixture.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/compat/memory")); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir)
	cfg.SegmentBytes = exp.SegmentBytes
	last := filepath.Join(dir, "wal", segmentFileName("wal", exp.Segments[len(exp.Segments)-1]))
	before, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}

	m, rec := mustOpen(t, cfg)
	if rec.Ledger.Height() != exp.Height || rec.SnapshotHeight != exp.SnapshotHeight ||
		rec.Replayed != exp.Replayed {
		t.Fatalf("recovered height %d from snapshot %d with %d replayed, parent recovered %+v",
			rec.Ledger.Height(), rec.SnapshotHeight, rec.Replayed, exp)
	}
	if got := rec.Ledger.LastHash().String(); got != exp.TipHash {
		t.Fatalf("ledger tip %s, parent recovered %s", got, exp.TipHash)
	}
	if got := rec.Store.Hash().String(); got != exp.StateHash {
		t.Fatalf("state hash %s, parent recovered %s", got, exp.StateHash)
	}
	if err := rec.Ledger.Verify(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(exp.TornBytes) {
		t.Fatalf("newest segment is %d bytes after open, want the %d-byte torn frame cut from %d",
			after.Size(), exp.TornBytes, before.Size())
	}
	if floor, next := m.SyncStatus(); floor != exp.Segments[0] || next != exp.Height {
		t.Fatalf("SyncStatus = (%d, %d), want (%d, %d)", floor, next, exp.Segments[0], exp.Height)
	}
	// The recovered log takes appends and the result recovers again.
	g := newChainGen(rec)
	if err := m.LogBlock(g.next(compatDelta(int(exp.Height)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec2 := mustOpen(t, cfg)
	defer m2.Close()
	if rec2.Ledger.Height() != exp.Height+1 || rec2.Store.Hash() != g.store.Hash() {
		t.Fatalf("reopen after appending to the parent's log: height %d", rec2.Ledger.Height())
	}
}

func TestWALCompatWritesIdenticalSegments(t *testing.T) {
	exp := loadCompatExpected(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = exp.SegmentBytes
	m, rec := mustOpen(t, cfg)
	g := newChainGen(rec)
	for i := 0; i < int(exp.Height); i++ {
		if err := m.LogBlock(g.next(compatDelta(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegmentFiles(filepath.Join(dir, "wal"), "wal")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(segs) != fmt.Sprint(exp.Segments) {
		t.Fatalf("segments %v, parent wrote %v", segs, exp.Segments)
	}
	for i, start := range segs {
		name := segmentFileName("wal", start)
		got, err := os.ReadFile(filepath.Join(dir, "wal", name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata/compat/memory/wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if i == len(segs)-1 {
			want = want[:len(want)-exp.TornBytes] // the fixture's torn frame
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the parent's bytes (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestWALCompatSnapshotImages pins the snapshot codec against the
// images the parent wrote: each decodes and re-encodes to the identical
// bytes.
func TestWALCompatSnapshotImages(t *testing.T) {
	// Shard order inside a live store is map order, so the pin is decode → re-encode of the parent's own sections.
	for _, name := range []string{"snap-0000000000000000.snap", "snap-0000000000000005.snap"} {
		want, err := os.ReadFile(filepath.Join("testdata/compat/memory/snap", name))
		if err != nil {
			t.Fatal(err)
		}
		man, _, err := DecodeSnapshot(want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mb, payload, err := openSnapshotImage(want)
		if err != nil {
			t.Fatal(err)
		}
		var shards [][]types.KV
		if _, err := decodeSections(payload, man.Shards, func(kvs []types.KV) {
			shards = append(shards, kvs)
		}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeSnapshotFile(path, mb, shards); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("%s re-encodes to different bytes than the parent wrote", name)
		}
	}
}

// TestOpenRejectsTieredSnapshot: a data directory whose newest snapshot
// is in the retired tiered format must not open — neither from an older
// full snapshot (which would silently roll the node back) nor empty.
// The error sends the operator to state sync.
func TestOpenRejectsTieredSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/compat/memory")); err != nil {
		t.Fatal(err)
	}
	tiered, err := os.ReadFile("testdata/compat/tiered.snap")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap", "snap-0000000000000007.snap")
	if err := os.WriteFile(path, tiered, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir)
	cfg.SegmentBytes = loadCompatExpected(t).SegmentBytes
	m, rec, err := Open(cfg, nil)
	if err == nil {
		m.Close()
		t.Fatalf("opened a directory holding a tiered snapshot at height %d", rec.Ledger.Height())
	}
	if msg := err.Error(); !strings.Contains(msg, "state sync") || !strings.Contains(msg, path) {
		t.Fatalf("error %q does not name %s and state sync", msg, path)
	}
}
