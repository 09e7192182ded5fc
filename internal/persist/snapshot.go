package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// A snapshot file freezes the full sharded KVStore at one block
// boundary:
//
//	magic (8)  | "PBSNAP01"
//	u32        | manifest length
//	manifest   | versioned Manifest encoding (own codec, fuzzed)
//	payload    | per shard: u64 record count, then records
//	           |   record: Str key, presence byte, Blob value
//	u32        | CRC-32C over everything above
//
// The value slices written are shared with the live store (the
// zero-copy state contract); the reader copies them out of the file
// buffer, so a restored store owns its values. Snapshots land through
// WriteFileAtomic, so a crash mid-write leaves the previous snapshot
// intact.

var snapMagic = [8]byte{'P', 'B', 'S', 'N', 'A', 'P', '0', '1'}

// manifestVersion is the snapshot manifest's on-disk version byte.
const manifestVersion = 1

// castagnoli is the CRC-32C table shared by snapshot files and WAL
// record frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manifest describes one snapshot: the block boundary it freezes, the
// chain anchor the restored ledger resumes from, and the state hash the
// restored store must reproduce.
type Manifest struct {
	// Height is the number of blocks folded into the snapshot; the next
	// block to finalize after restoring carries this number.
	Height uint64
	// LastHash is the hash of block Height-1 (the ledger tip at the
	// boundary; the zero hash for a genesis snapshot).
	LastHash types.Hash
	// StateHash is the store's incremental XOR-of-SHA256 hash over the
	// snapshot content.
	StateHash types.Hash
	// Shards is the store's shard count at write time.
	Shards uint64
	// Records is the total number of live records across all shards.
	Records uint64
}

// Marshal encodes the manifest with its versioned codec.
func (m *Manifest) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(manifestVersion)
	w.U64(m.Height)
	w.WriteHash(m.LastHash)
	w.WriteHash(m.StateHash)
	w.U64(m.Shards)
	w.U64(m.Records)
	return w.CloneBytes()
}

// UnmarshalManifest decodes a manifest encoded by Marshal. Malformed
// input returns an error, never panics.
func UnmarshalManifest(b []byte) (*Manifest, error) {
	r := types.NewByteReader(b)
	if v := r.Byte(); r.Err() == nil && v != manifestVersion {
		return nil, fmt.Errorf("persist: unsupported snapshot manifest version %d", v)
	}
	m := &Manifest{Height: r.U64()}
	m.LastHash = r.ReadHash()
	m.StateHash = r.ReadHash()
	m.Shards = r.U64()
	m.Records = r.U64()
	if err := types.FinishDecode(r, "snapshot manifest"); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return m, nil
}

// crcWriter tees writes into a CRC-32C running sum, accumulating the
// first error so the write path can check once at the end.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
}

func (cw *crcWriter) bytes(b []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
		return
	}
	cw.crc.Write(b)
}

func (cw *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	cw.bytes(b[:])
}

// encodeShard serializes one shard's section of the snapshot payload
// (u64 record count, then length-prefixed records) into a byte slice.
func encodeShard(kvs []types.KV) []byte {
	size := 8
	for _, kv := range kvs {
		size += 8 + len(kv.Key) + 1 + 8 + len(kv.Val)
	}
	buf := make([]byte, 0, size)
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	u64(uint64(len(kvs)))
	for _, kv := range kvs {
		u64(uint64(len(kv.Key)))
		buf = append(buf, kv.Key...)
		buf = append(buf, 1) // presence: a snapshot holds live records only
		u64(uint64(len(kv.Val)))
		buf = append(buf, kv.Val...)
	}
	return buf
}

// writeSnapshotFile writes (atomically) one snapshot image: magic,
// length-prefixed manifest, one payload section per shard, CRC-32C over
// everything. Each section is encoded and released before the next, so
// peak extra memory is one encoded section, never the whole store.
func writeSnapshotFile(path string, manifest []byte, shards [][]types.KV) error {
	err := WriteFileAtomic(path, func(f *os.File) error {
		cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<20), crc: crc32.New(castagnoli)}
		cw.bytes(snapMagic[:])
		cw.u32(uint32(len(manifest)))
		cw.bytes(manifest)
		for _, kvs := range shards {
			cw.bytes(encodeShard(kvs))
		}
		if cw.err == nil {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], cw.crc.Sum32())
			_, cw.err = cw.w.Write(b[:])
		}
		if cw.err == nil {
			cw.err = cw.w.Flush()
		}
		return cw.err
	})
	if err != nil {
		return fmt.Errorf("persist: writing snapshot %s: %w", path, err)
	}
	return nil
}

// openSnapshotImage verifies a snapshot image's checksum and magic and
// splits it into the encoded manifest and the payload sections.
func openSnapshotImage(raw []byte) (manifest, payload []byte, err error) {
	if len(raw) < len(snapMagic)+4+4 {
		return nil, nil, errors.New("snapshot truncated")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(tail) {
		return nil, nil, errors.New("snapshot checksum mismatch")
	}
	if [8]byte(body[:8]) != snapMagic {
		return nil, nil, errors.New("snapshot has bad magic")
	}
	mlen := int(binary.BigEndian.Uint32(body[8:]))
	body = body[12:]
	if mlen > len(body) {
		return nil, nil, errors.New("snapshot truncated")
	}
	return body[:mlen], body[mlen:], nil
}

// decodeSections decodes a payload of per-shard sections, handing each
// shard's batch to emit in order, and returns the record count. A
// snapshot holds live records only, so every record carries a value.
func decodeSections(payload []byte, shards uint64, emit func([]types.KV)) (uint64, error) {
	r := types.NewByteReader(payload)
	var total uint64
	for s := uint64(0); s < shards && r.Err() == nil; s++ {
		n := r.U64()
		if r.Err() != nil || n > uint64(r.Remaining())/minDeltaKVSize {
			r.Fail()
			break
		}
		batch := make([]types.KV, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			kv := types.KV{Key: r.Str()}
			if r.Byte() != 1 {
				r.Fail() // a snapshot holds no deletions
			}
			kv.Val = r.Blob()
			if kv.Val == nil {
				kv.Val = []byte{}
			}
			batch = append(batch, kv)
		}
		if r.Err() == nil {
			emit(batch)
			total += n
		}
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("decoding snapshot: %w", err)
	}
	if r.Remaining() != 0 {
		return 0, fmt.Errorf("snapshot has %d trailing bytes", r.Remaining())
	}
	return total, nil
}

// DecodeSnapshot decodes and verifies a snapshot file image — checksum,
// magic, manifest, shard payloads, record count, and the incremental
// state hash — into a fresh KVStore. Recovery loads local snapshots
// through it, and state sync uses it to validate a snapshot reassembled
// from peer-served chunks before adopting it. Malformed input returns an
// error, never panics.
func DecodeSnapshot(raw []byte) (*Manifest, *state.KVStore, error) {
	mb, payload, err := openSnapshotImage(raw)
	if err != nil {
		return nil, nil, err
	}
	man, err := UnmarshalManifest(mb)
	if err != nil {
		return nil, nil, err
	}
	store := state.NewKVStore()
	total, err := decodeSections(payload, man.Shards, store.Apply)
	if err != nil {
		return nil, nil, err
	}
	if total != man.Records {
		return nil, nil, fmt.Errorf("snapshot holds %d records, manifest says %d",
			total, man.Records)
	}
	if got := store.Hash(); got != man.StateHash {
		return nil, nil, fmt.Errorf("snapshot state hash mismatch: got %s want %s",
			got, man.StateHash)
	}
	return man, store, nil
}
