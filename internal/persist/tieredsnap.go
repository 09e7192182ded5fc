package persist

import (
	"fmt"
	"math"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// A tiered snapshot file is the backend-native recovery point of a
// TieredStore. Where a full snapshot (PBSNAP01) copies every live
// record, a tiered snapshot copies only the dirty hot entries — the
// cold tier is referenced by segment byte lengths, and recovery
// truncates the cold log back to exactly those lengths before replaying
// the dirty records on top. The cold fraction of the state costs no
// snapshot I/O beyond an fsync, which is the point of having a cold
// tier in the first place:
//
//	magic (8)  | "PBSNAP02"
//	u32        | manifest length
//	manifest   | versioned TieredManifest encoding (own codec, fuzzed)
//	payload    | per shard: u64 record count, then records
//	           |   record: Str key, presence byte, Blob value
//	u32        | CRC-32C over everything above
//
// The envelope and payload grammar are the full format's (one writer,
// one reader: writeSnapshotFile, openSnapshotImage, decodeSections),
// but records may be deletions (presence 0): a dirty tombstone of a
// cold-indexed key must travel so the replay re-deletes it. The dirty
// payload is bounded by the store's hot budget, so it is written
// serially.
//
// Tiered snapshot files are local-only: they are useless without the
// node's own cold segment files, so the sync server never offers them
// to peers (NewestSnapshot skips them).

var tieredSnapMagic = [8]byte{'P', 'B', 'S', 'N', 'A', 'P', '0', '2'}

// tieredManifestVersion is the tiered manifest's on-disk version byte.
const tieredManifestVersion = 1

// maxManifestSegments bounds the decoded cold-segment list so a
// malformed length cannot force a huge allocation.
const maxManifestSegments = 1 << 20

// TieredManifest describes one tiered snapshot: the block boundary, the
// chain anchor, the state hash the restored store must reproduce, and
// the cold-segment cut the capture committed to.
type TieredManifest struct {
	// Height, LastHash, StateHash: as in Manifest.
	Height    uint64
	LastHash  types.Hash
	StateHash types.Hash
	// Shards is the number of dirty payload sections that follow.
	Shards uint64
	// Records is the total number of live records across both tiers.
	Records uint64
	// DirtyRecords is the number of records in the dirty payload.
	DirtyRecords uint64
	// Segments lists every cold segment with the byte length the capture
	// saw; recovery prunes unlisted segments and truncates listed ones.
	Segments []state.ColdSegRef
}

// Marshal encodes the manifest with its versioned codec.
func (m *TieredManifest) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(tieredManifestVersion)
	w.U64(m.Height)
	w.WriteHash(m.LastHash)
	w.WriteHash(m.StateHash)
	w.U64(m.Shards)
	w.U64(m.Records)
	w.U64(m.DirtyRecords)
	w.U64(uint64(len(m.Segments)))
	for _, seg := range m.Segments {
		w.U64(seg.Seq)
		w.U64(uint64(seg.Len))
	}
	return w.CloneBytes()
}

// UnmarshalTieredManifest decodes a manifest encoded by Marshal.
// Malformed input returns an error, never panics.
func UnmarshalTieredManifest(b []byte) (*TieredManifest, error) {
	r := types.NewByteReader(b)
	if v := r.Byte(); r.Err() == nil && v != tieredManifestVersion {
		return nil, fmt.Errorf("persist: unsupported tiered manifest version %d", v)
	}
	m := &TieredManifest{Height: r.U64()}
	m.LastHash = r.ReadHash()
	m.StateHash = r.ReadHash()
	m.Shards = r.U64()
	m.Records = r.U64()
	m.DirtyRecords = r.U64()
	n := r.U64()
	if r.Err() == nil && (n > maxManifestSegments || n > uint64(r.Remaining())/16) {
		return nil, fmt.Errorf("persist: tiered manifest claims %d cold segments", n)
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		seq := r.U64()
		length := r.U64()
		if length > math.MaxInt64 {
			r.Fail()
			break
		}
		m.Segments = append(m.Segments, state.ColdSegRef{Seq: seq, Len: int64(length)})
	}
	if err := types.FinishDecode(r, "tiered snapshot manifest"); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return m, nil
}

// decodeTieredSnapshot decodes and checksums a tiered snapshot image
// into its manifest and per-shard dirty batches. It does NOT verify the
// state hash — that needs the cold tier, so the caller reopens the
// store against man.Segments, applies the batches, and checks Hash and
// Len against the manifest. Malformed input returns an error, never
// panics.
func decodeTieredSnapshot(raw []byte) (*TieredManifest, [][]types.KV, error) {
	mb, payload, err := openSnapshotImage(raw, tieredSnapMagic)
	if err != nil {
		return nil, nil, err
	}
	man, err := UnmarshalTieredManifest(mb)
	if err != nil {
		return nil, nil, err
	}
	var dirty [][]types.KV
	total, err := decodeSections(payload, man.Shards, true, func(batch []types.KV) {
		dirty = append(dirty, batch)
	})
	if err != nil {
		return nil, nil, err
	}
	if total != man.DirtyRecords {
		return nil, nil, fmt.Errorf("tiered snapshot holds %d dirty records, manifest says %d",
			total, man.DirtyRecords)
	}
	return man, dirty, nil
}
