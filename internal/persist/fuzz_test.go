package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// The on-disk codec fuzz contract, identical to internal/types': any
// input either decodes or errors — never panics, never allocates past
// the input size — and anything that decodes must re-encode stably
// (decode(encode(decode(x))) is a fixed point). Seed corpora live in
// testdata/fuzz and run as regression inputs under plain `go test`.

func fuzzRecord() *BlockRecord {
	tx := &types.Transaction{
		ID:       "tx-1",
		App:      "app1",
		Client:   "c1",
		ClientTS: 7,
		Op: types.Operation{
			Method: "transfer",
			Params: []string{"a", "b", "5"},
			Reads:  []string{"a", "b"},
			Writes: []string{"a", "b"},
		},
		SubmitUnixNano: 1234567,
		Sig:            []byte{1, 2, 3},
	}
	return &BlockRecord{
		Block: types.NewBlock(3, types.Hash{1}, []*types.Transaction{tx}),
		Results: []types.TxResult{
			{TxID: "tx-1", Index: 0, Writes: []types.KV{{Key: "a", Val: []byte("95")}}},
		},
		Delta: []types.KV{
			{Key: "a", Val: []byte("95")},
			{Key: "gone", Val: nil},       // deletion
			{Key: "empty", Val: []byte{}}, // present but empty
		},
		StateHash:      types.Hash{9},
		Streamed:       true,
		EvidenceDigest: types.Hash{8},
		SealSegments:   2,
		SealCum:        types.Hash{7},
		Endorse: []Endorsement{
			{Node: "o1", Sig: []byte{4}},
			{Node: "o2", Sig: []byte{5, 6}},
		},
	}
}

func FuzzUnmarshalBlockRecord(f *testing.F) {
	f.Add(fuzzRecord().Marshal())
	empty := &BlockRecord{Block: types.NewBlock(0, types.ZeroHash, nil)}
	f.Add(empty.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalBlockRecord(data)
		if err != nil {
			return
		}
		enc := rec.Marshal()
		rec2, err := UnmarshalBlockRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, rec2.Marshal()) {
			t.Fatal("WAL record encoding is not a fixed point")
		}
	})
}

func FuzzUnmarshalManifest(f *testing.F) {
	man := &Manifest{
		Height:    12,
		LastHash:  types.Hash{1},
		StateHash: types.Hash{2},
		Shards:    32,
		Records:   441,
	}
	f.Add(man.Marshal())
	f.Add((&Manifest{}).Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 90))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalManifest(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := UnmarshalManifest(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if *m2 != *m {
			t.Fatal("manifest round trip changed fields")
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("manifest encoding is not a fixed point")
		}
	})
}

// TestRecordCodecRoundTrip pins the exact semantics the replay path
// depends on: block hash, result digests, and the nil-vs-empty delta
// value distinction must survive the disk format byte for byte.
func TestRecordCodecRoundTrip(t *testing.T) {
	rec := fuzzRecord()
	back, err := UnmarshalBlockRecord(rec.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Block.Hash() != rec.Block.Hash() {
		t.Fatal("block hash changed across the disk format")
	}
	if !back.Block.VerifyTxRoot() {
		t.Fatal("tx root no longer verifies after round trip")
	}
	if len(back.Results) != 1 || back.Results[0].Digest() != rec.Results[0].Digest() {
		t.Fatal("result digest changed across the disk format")
	}
	if back.StateHash != rec.StateHash || back.EvidenceDigest != rec.EvidenceDigest ||
		!back.Streamed {
		t.Fatalf("scalar fields changed: %+v", back)
	}
	if back.SealSegments != rec.SealSegments || back.SealCum != rec.SealCum {
		t.Fatalf("seal evidence changed: %+v", back)
	}
	if len(back.Delta) != 3 {
		t.Fatalf("delta length = %d", len(back.Delta))
	}
	if back.Delta[1].Val != nil {
		t.Fatal("deletion became a value")
	}
	if back.Delta[2].Val == nil {
		t.Fatal("empty value became a deletion")
	}
	if len(back.Endorse) != 2 || back.Endorse[0].Node != "o1" ||
		!bytes.Equal(back.Endorse[1].Sig, []byte{5, 6}) {
		t.Fatalf("endorsements changed: %+v", back.Endorse)
	}
}

// snapshotImage writes one image through the real writer and returns its
// bytes — the fuzz targets' valid seed.
func snapshotImage(f *testing.F, manifest []byte, shards [][]types.KV) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := writeSnapshotFile(path, manifest, shards); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// addImageSeeds seeds a snapshot-image fuzz target: the valid image, a
// truncation, a flipped CRC, and the image re-sealed around a manifest
// that claims 2^62 payload sections (a count-proportional allocation
// would die on it).
func addImageSeeds(f *testing.F, valid []byte, hostileManifest []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	hostile := append([]byte(nil), valid[:8]...)
	hostile = binary.BigEndian.AppendUint32(hostile, uint32(len(hostileManifest)))
	hostile = append(hostile, hostileManifest...)
	hostile = binary.BigEndian.AppendUint32(hostile, crc32.Checksum(hostile, castagnoli))
	f.Add(hostile)
}

// checkDecodeAlloc runs decode and fails if it allocated out of
// proportion to its input: decoders are fed peer-served bytes, so an
// attacker-chosen count must never size an allocation.
func checkDecodeAlloc(t *testing.T, n int, decode func()) {
	t.Helper()
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	decode()
	metrics.Read(sample)
	// A decoded KV is ~5x its smallest encoding; the constant covers an
	// empty store's shards.
	if got, limit := sample[0].Value.Uint64()-before, uint64(64*n+1<<20); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", n, got, limit)
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	store := state.NewKVStore()
	store.Apply([]types.KV{{Key: "alice", Val: []byte("100")}, {Key: "empty", Val: []byte{}}})
	shards, hash := store.SnapshotShards()
	man := &Manifest{Height: 3, LastHash: types.Hash{1}, StateHash: hash,
		Shards: uint64(len(shards)), Records: countRecords(shards)}
	hostile := *man
	hostile.Shards = 1 << 62
	addImageSeeds(f, snapshotImage(f, man.Marshal(), shards), hostile.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAlloc(t, len(data), func() {
			man, store, err := DecodeSnapshot(data)
			if err == nil && (store.Hash() != man.StateHash || uint64(store.Len()) != man.Records) {
				t.Fatal("DecodeSnapshot accepted an image its manifest does not describe")
			}
		})
	})
}
