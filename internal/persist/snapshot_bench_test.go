package persist

import (
	"fmt"
	"path/filepath"
	"testing"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// BenchmarkSnapshotWrite measures the background snapshot writer on a
// ~64k-record store.
func BenchmarkSnapshotWrite(b *testing.B) {
	store := state.NewKVStore()
	var batch []types.KV
	val := make([]byte, 96)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < 64<<10; i++ {
		batch = append(batch, types.KV{Key: fmt.Sprintf("acct%08d", i), Val: val})
	}
	store.Apply(batch)
	shards, hash := store.SnapshotShards()
	man := &Manifest{
		Height:    1,
		StateHash: hash,
		Shards:    uint64(len(shards)),
		Records:   countRecords(shards),
	}
	var bytesPerSnap int64
	for _, kvs := range shards {
		for _, kv := range kvs {
			bytesPerSnap += int64(len(kv.Key) + len(kv.Val) + 17)
		}
	}

	dir := b.TempDir()
	b.SetBytes(bytesPerSnap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("snap-%d.snap", i))
		if err := writeSnapshotFile(path, man.Marshal(), shards); err != nil {
			b.Fatal(err)
		}
	}
}
