package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// This file is the durability side of peer-served state sync: range
// readers that serve finalization records (straight from WAL segments)
// and snapshot chunks to lagging peers, and the adoption path that
// installs a verified peer snapshot as this node's own recovery point.
//
// Serving runs concurrently with the executor's append path. RecordLog
// range reads open their own file handles, so they never disturb the
// append offset; a same-process read of the active segment sees every
// frame a completed LogBlock wrote (the page cache is coherent), and
// background pruning racing a read surfaces as a missing file, which is
// reported as ErrSyncBelowFloor so the requester falls back to snapshot
// transfer.

// ErrSyncBelowFloor reports a records request below the WAL truncation
// point: the segments were pruned under a snapshot, so the requester
// must take the snapshot instead.
var ErrSyncBelowFloor = errors.New("persist: requested height below WAL floor")

// errStopReplay ends a range read early once the byte budget is spent.
var errStopReplay = errors.New("persist: stop replay")

// SyncStatus reports the height range this node can serve records for:
// floor is the lowest height still in the WAL, next is the height the
// next finalized block will carry (one past the durable tip).
func (m *Manager) SyncStatus() (floor, next uint64) {
	return m.log.FirstIndex(), m.log.NextIndex()
}

// ServeBlocks returns the marshaled finalization records for consecutive
// heights starting at from, bounded by maxBytes (at least one record is
// returned when any is available, so a single oversized record cannot
// wedge a transfer). A from at or above the durable tip returns an empty
// batch; a from below the WAL floor returns ErrSyncBelowFloor.
func (m *Manager) ServeBlocks(from uint64, maxBytes int) ([][]byte, error) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, errors.New("persist: manager closed")
	}
	floor, next := m.SyncStatus()
	if from >= next {
		return nil, nil
	}
	if from < floor {
		return nil, ErrSyncBelowFloor
	}
	// Record index is block height (the WAL append contract), so the
	// range is positional — no decode needed to locate it.
	var out [][]byte
	total := 0
	err := m.log.Range(from, func(_ uint64, body []byte) error {
		if total >= maxBytes && len(out) > 0 {
			return errStopReplay
		}
		out = append(out, body) // the segment reader allocates per frame
		total += len(body)
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: serving blocks from %d: %w", from, err)
	}
	if len(out) == 0 {
		// The range exists per the metadata but no file yielded it (pruned
		// between the status read and the file read); make the requester
		// re-negotiate.
		return nil, ErrSyncBelowFloor
	}
	return out, nil
}

// NewestSnapshot returns the height of the newest durable snapshot file
// and whether one exists. It lists the directory rather than trusting
// lastSnap, which is set before the background write completes.
func (m *Manager) NewestSnapshot() (uint64, bool) {
	snaps, err := listSnapshots(m.snapDir)
	if err != nil || len(snaps) == 0 {
		return 0, false
	}
	return snaps[len(snaps)-1], true
}

// ServeSnapshotChunk returns one chunkBytes-sized slice of the snapshot
// file at the given height, plus the total chunk count. The file's own
// CRC protects the reassembled whole; chunks carry no per-chunk
// checksum.
func (m *Manager) ServeSnapshotChunk(height, chunk uint64, chunkBytes int) ([]byte, uint64, error) {
	if chunkBytes <= 0 {
		return nil, 0, errors.New("persist: non-positive snapshot chunk size")
	}
	raw, err := os.ReadFile(m.snapPath(height))
	if err != nil {
		return nil, 0, fmt.Errorf("persist: serving snapshot %d: %w", height, err)
	}
	chunks := (uint64(len(raw)) + uint64(chunkBytes) - 1) / uint64(chunkBytes)
	if chunks == 0 {
		chunks = 1
	}
	if chunk >= chunks {
		return nil, 0, fmt.Errorf("persist: snapshot %d has %d chunks, chunk %d requested",
			height, chunks, chunk)
	}
	lo := chunk * uint64(chunkBytes)
	hi := lo + uint64(chunkBytes)
	if hi > uint64(len(raw)) {
		hi = uint64(len(raw))
	}
	return raw[lo:hi], chunks, nil
}

// AdoptSnapshot installs a peer-served, caller-verified snapshot image
// as this node's recovery point: the raw bytes become the local snapshot
// file at the given height, the WAL restarts in a fresh segment at that
// height, and everything below is pruned. The caller must have verified
// the image with DecodeSnapshot and installed it in its store and ledger
// before resuming appends.
func (m *Manager) AdoptSnapshot(height uint64, raw []byte) error {
	m.snapWG.Wait() // no background snapshot write racing the swap
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("persist: manager closed")
	}
	if next := m.log.NextIndex(); height < next {
		return fmt.Errorf("persist: adopting snapshot at %d below durable tip %d", height, next)
	}
	err := WriteFileAtomic(m.snapPath(height), func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: writing adopted snapshot at %d: %w", height, err)
	}
	// The snapshot is durable first: a crash from here on reopens at it
	// and Open finishes the reset.
	if err := m.log.Reset(height); err != nil {
		return err
	}
	m.lastSnap, m.durableSnap = height, height
	m.pruneSnapshots(height)
	return nil
}
