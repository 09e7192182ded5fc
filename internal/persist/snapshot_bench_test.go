package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// TestSnapshotParallelWriteMatchesSerial pins the shard-parallel writer's
// contract: with any worker count the snapshot file is byte-identical to
// the serial write (one CRC, shard order preserved) and round-trips
// through DecodeSnapshot.
func TestSnapshotParallelWriteMatchesSerial(t *testing.T) {
	store := state.NewKVStore()
	var batch []types.KV
	for i := 0; i < 4096; i++ {
		batch = append(batch, types.KV{
			Key: fmt.Sprintf("k%06d", i), Val: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	store.Apply(batch)
	shards, hash := store.SnapshotShards()
	man := &Manifest{
		Height: 7, StateHash: hash,
		Shards: uint64(len(shards)), Records: countRecords(shards),
	}
	dir := t.TempDir()
	serialPath := filepath.Join(dir, "serial.snap")
	if err := writeSnapshotFile(serialPath, man.Marshal(), shards, 1); err != nil {
		t.Fatal(err)
	}
	parallelPath := filepath.Join(dir, "parallel.snap")
	if err := writeSnapshotFile(parallelPath, man.Marshal(), shards, 4); err != nil {
		t.Fatal(err)
	}

	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel snapshot write produced different bytes than serial")
	}
	gotMan, gotStore, err := DecodeSnapshot(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if gotMan.Height != 7 || gotStore.Hash() != hash {
		t.Fatal("parallel snapshot did not round-trip")
	}
}

// BenchmarkSnapshotWrite measures the background snapshot writer on a
// ~64k-record store, serial (workers=1, the pre-optimization path) vs
// shard-parallel encoding. The on-disk format is identical in both modes;
// the delta is the CPU-bound serialization moving off a single core.
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

	for i, workers := range []int{1, snapshotWorkers()} {
		name := "serial"
		if i == 1 {
			name = fmt.Sprintf("parallel-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			b.SetBytes(bytesPerSnap)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := filepath.Join(dir, fmt.Sprintf("snap-%d.snap", i))
				if err := writeSnapshotFile(path, man.Marshal(), shards, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
