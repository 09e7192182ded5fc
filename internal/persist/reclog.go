package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"parblockchain/internal/types"
)

// RecordLog is the one segmented log under every durable role: a
// CRC-32C-checksummed append log of opaque record bodies in the segment
// format of segment.go. The executor's block WAL (Manager, prefix
// "wal", record index = block height), the orderer's consensus-delivery
// and cut log ("olog") and the Raft and Kafka adapters' entry logs
// ("raft", "kafka") each open one and interpret the bodies themselves;
// open/replay, torn-tail truncation, roll, prune, group fsync, crash
// simulation, positional range reads and reset exist here and nowhere
// else.
//
// Records are indexed densely; record N of a segment starting at index
// S is record S+N. A torn frame at the tail of the newest segment is
// the expected shape of a crash and is truncated on open; a bad frame
// anywhere else is disk corruption and fails the open loudly. The log
// directory is flock-guarded, so a second process cannot mount it
// concurrently.

// DefaultLogSegmentBytes is the segment size past which a RecordLog
// reports itself Full. Consensus records are small (a few hundred bytes
// each), so segments stay modest by default.
const DefaultLogSegmentBytes = 4 << 20

// RecordLogConfig parameterizes one RecordLog.
type RecordLogConfig struct {
	// Dir is the log's directory (created if missing); segment files and
	// the LOCK file live directly under it.
	Dir string
	// Prefix names the segment files: <Prefix>-<16 hex digits>.seg.
	// Empty means "log".
	Prefix string
	// SegmentBytes is the size at which the active segment reports Full.
	// Zero means DefaultLogSegmentBytes. The log never rolls on its own —
	// callers Roll when Full, so those that need segment boundaries to
	// align with record semantics (the orderer anchors each segment with
	// a cut record) control them exactly.
	SegmentBytes int64
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c RecordLogConfig) withDefaults() RecordLogConfig {
	if c.Prefix == "" {
		c.Prefix = "log"
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultLogSegmentBytes
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// RecordLogStats counts a log's durability operations.
type RecordLogStats struct {
	// Appends is the number of records appended since open.
	Appends uint64
	// Syncs is the number of fsyncs issued since open.
	Syncs uint64
	// Replayed is the number of records replayed at open.
	Replayed uint64
	// TailTruncated reports whether open truncated a torn tail.
	TailTruncated bool
}

// RecordLog is an open log. Append/Sync/Roll/TruncateFrom/PruneTo/Reset
// are serialized by an internal mutex; Stats is safe from any goroutine.
type RecordLog struct {
	cfg RecordLogConfig

	mu       sync.Mutex
	lock     *os.File
	seg      *os.File // active segment
	segments []uint64 // segment start indices, ascending (last = active)
	segStart uint64   // active segment's first record index
	next     uint64   // index the next Append returns
	size     int64    // active segment's byte size
	synced   int64    // active segment bytes known durable
	dirty    bool
	closed   bool

	appends   atomic.Uint64
	syncs     atomic.Uint64
	replayed  uint64
	truncated bool
}

var errLogClosed = errors.New("persist: RecordLog is closed")

// OpenRecordLog opens (creating if needed) the log in cfg.Dir, replays
// every durable record through fn in index order, truncates a torn tail
// in the newest segment, and positions the log for appends. A decode or
// semantic error returned by fn aborts the open; corruption anywhere but
// the newest segment's tail fails the open.
func OpenRecordLog(cfg RecordLogConfig, fn func(idx uint64, body []byte) error) (*RecordLog, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("persist: RecordLog needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	lock, err := acquireDirLock(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &RecordLog{cfg: cfg, lock: lock}
	if err := l.replay(fn); err != nil {
		lock.Close()
		return nil, err
	}
	return l, nil
}

func (l *RecordLog) segPath(start uint64) string {
	return filepath.Join(l.cfg.Dir, segmentFileName(l.cfg.Prefix, start))
}

func (l *RecordLog) replay(fn func(idx uint64, body []byte) error) error {
	starts, err := listSegmentFiles(l.cfg.Dir, l.cfg.Prefix)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if len(starts) == 0 {
		return l.startSegment(0)
	}
	idx := starts[0]
	var offset int64
	for i, start := range starts {
		if start != idx {
			return fmt.Errorf("persist: %s log segment %016x does not continue at %016x",
				l.cfg.Prefix, start, idx)
		}
		offset, err = replaySegmentFile(l.segPath(start), l.cfg.Prefix, func(body []byte) error {
			if err := fn(idx, body); err != nil {
				return err
			}
			idx++
			l.replayed++
			return nil
		})
		if err == errTornTail {
			if i != len(starts)-1 {
				return fmt.Errorf("persist: %s log segment %016x is corrupt mid-log", l.cfg.Prefix, start)
			}
			l.cfg.Logf("persist: truncating torn %s log tail of segment %016x at offset %d",
				l.cfg.Prefix, start, offset)
			l.truncated = true
		} else if err != nil {
			return err
		}
	}
	last := len(starts) - 1
	if offset < int64(walHeaderLen) {
		// A crash inside createSegmentFile left the newest segment without
		// its header: write it again.
		l.segments = starts[:last]
		return l.startSegment(starts[last])
	}
	l.segments = starts
	l.next = idx
	return l.resumeSegment(starts[last], offset)
}

// startSegment creates a fresh, empty active segment at index start
// after the retained ones.
func (l *RecordLog) startSegment(start uint64) error {
	f, err := createSegmentFile(l.cfg.Dir, l.cfg.Prefix, start)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.seg = f
	l.segments = append(l.segments, start)
	l.segStart, l.next = start, start
	l.size = int64(walHeaderLen)
	l.synced = l.size
	l.dirty = false
	return nil
}

// resumeSegment cuts the segment starting at start down to offset (a
// no-op when nothing follows it) and reopens it as the active one,
// positioned for appends there.
func (l *RecordLog) resumeSegment(start uint64, offset int64) error {
	path := l.segPath(start)
	if err := os.Truncate(path, offset); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	l.seg = f
	l.segStart = start
	l.size = offset
	l.synced = offset
	l.dirty = false
	return nil
}

// Append writes one record body as a checksummed frame and returns its
// index. It never syncs: the record is durable once the next Sync, Roll
// or Close returns.
func (l *RecordLog) Append(body []byte) (uint64, error) {
	return l.AppendWith(func(w *types.ByteWriter) { w.Raw(body) })
}

// AppendWith is Append for a record that encodes itself: encode writes
// the body straight into the frame buffer, so a large record reaches the
// file in one write with no intermediate copy.
func (l *RecordLog) AppendWith(encode func(*types.ByteWriter)) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	n, err := appendFrame(l.seg, encode)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	idx := l.next
	l.next++
	l.size += int64(n)
	l.dirty = true
	l.appends.Add(1)
	return idx, nil
}

// Sync forces every appended record to stable storage (the group-commit
// call). A no-op when nothing is dirty.
func (l *RecordLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dirty {
		return nil
	}
	return l.syncLocked()
}

func (l *RecordLog) syncLocked() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("persist: fsync: %w", err)
	}
	l.synced = l.size
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// FirstIndex returns the start of the oldest retained segment: records
// below it were pruned or reset away.
func (l *RecordLog) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0]
}

// NextIndex returns the index the next Append will be assigned.
func (l *RecordLog) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Segments returns the segment start indices, ascending (the last entry
// is the active segment). Callers use it to align record semantics with
// segment boundaries (the orderer's cut-record anchors).
func (l *RecordLog) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.segments...)
}

// Full reports whether the active segment has reached the configured
// SegmentBytes — the caller's cue to Roll before its next append.
func (l *RecordLog) Full() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size >= l.cfg.SegmentBytes
}

// Roll seals the active segment (syncing whatever is dirty) and starts a fresh one at the next record index. Rolling an empty
// segment is a no-op: a second segment with the same start index would
// share its file name and break the positional index contract.
func (l *RecordLog) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if l.next == l.segStart {
		return nil
	}
	if l.dirty {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("persist: sealing segment: %w", err)
	}
	return l.startSegment(l.next)
}

// removeSegments deletes the given segment files and makes the removals
// durable.
func (l *RecordLog) removeSegments(starts []uint64) error {
	if len(starts) == 0 {
		return nil
	}
	for _, start := range starts {
		if err := os.Remove(l.segPath(start)); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Reset discards every record and restarts the log empty at index start
// (the executor adopting a peer snapshot above its tip). A crash between
// the removals and the fresh segment leaves a shorter or empty log,
// which the owner's open path resets again.
func (l *RecordLog) Reset(start uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := l.removeSegments(l.segments); err != nil {
		return err
	}
	l.segments = l.segments[:0]
	return l.startSegment(start)
}

// TruncateFrom discards every record with index >= idx (the Raft
// conflict-truncation path). Later segments are deleted whole; a
// truncation point inside a segment truncates the file in place. idx
// below the first retained segment is an error (that history is pruned).
func (l *RecordLog) TruncateFrom(idx uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if idx >= l.next {
		return nil
	}
	if idx < l.segments[0] {
		return fmt.Errorf("persist: TruncateFrom(%d) is below the pruned floor %d", idx, l.segments[0])
	}
	// Find the segment holding idx.
	si := 0
	for i, start := range l.segments {
		if start <= idx {
			si = i
		}
	}
	start := l.segments[si]
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if idx == start {
		// The whole segment goes too; recreate it empty at idx.
		if err := l.removeSegments(l.segments[si:]); err != nil {
			return err
		}
		l.segments = l.segments[:si]
		return l.startSegment(idx)
	}
	if err := l.removeSegments(l.segments[si+1:]); err != nil {
		return err
	}
	l.segments = l.segments[:si+1]
	// Scan to the byte offset of record idx and truncate in place.
	scan := start
	var errStop = errors.New("stop")
	offset, err := replaySegmentFile(l.segPath(start), l.cfg.Prefix, func([]byte) error {
		if scan == idx {
			return errStop
		}
		scan++
		return nil
	})
	if err != nil && err != errStop && err != errTornTail {
		return err
	}
	if scan != idx {
		return fmt.Errorf("persist: TruncateFrom(%d): segment %016x ends at %d", idx, start, scan)
	}
	if err := l.resumeSegment(start, offset); err != nil {
		return err
	}
	l.next = idx
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// PruneTo deletes sealed segments that lie entirely below keep: segment
// i goes when segment i+1 starts at or below keep (so the record at
// index keep — and everything after it — survives). The active segment
// is never pruned.
func (l *RecordLog) PruneTo(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	n := 0
	for n+1 < len(l.segments) && l.segments[n+1] <= keep {
		n++
	}
	if err := l.removeSegments(l.segments[:n]); err != nil {
		return err
	}
	l.segments = l.segments[n:]
	return nil
}

// Range streams every durable record with index >= from through fn in
// order (the Kafka adapter's catch-up and the executor's state-sync
// serving paths). It reads the segment files directly, so concurrent
// appends made after the call starts may or may not be included, and a
// segment pruned under the reader surfaces as a not-exist error.
func (l *RecordLog) Range(from uint64, fn func(idx uint64, body []byte) error) error {
	l.mu.Lock()
	segments := append([]uint64(nil), l.segments...)
	next := l.next
	l.mu.Unlock()
	for i, start := range segments {
		end := next
		if i+1 < len(segments) {
			end = segments[i+1]
		}
		if end <= from {
			continue
		}
		idx := start
		_, err := replaySegmentFile(l.segPath(start), l.cfg.Prefix, func(body []byte) error {
			defer func() { idx++ }()
			if idx < from {
				return nil
			}
			return fn(idx, body)
		})
		if err != nil && err != errTornTail {
			return err
		}
	}
	return nil
}

// Close syncs whatever is dirty, closes the active segment, and
// releases the directory lock.
func (l *RecordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.dirty {
		err = l.syncLocked()
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	if cerr := l.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a machine crash for tests: unsynced bytes of the
// active segment are discarded — what a power loss does to the page
// cache — and the log becomes unusable without a final sync. Roll syncs
// a segment before sealing it, so only the active segment can hold
// unsynced bytes and the model is exact.
func (l *RecordLog) Crash() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("persist: crash close: %w", err)
	}
	if err := os.Truncate(l.segPath(l.segStart), l.synced); err != nil {
		return fmt.Errorf("persist: crash truncate: %w", err)
	}
	// A dead process holds no flock; release it like the kernel would.
	return l.lock.Close()
}

// Stats returns a snapshot of the log's counters.
func (l *RecordLog) Stats() RecordLogStats {
	return RecordLogStats{
		Appends:       l.appends.Load(),
		Syncs:         l.syncs.Load(),
		Replayed:      l.replayed,
		TailTruncated: l.truncated,
	}
}
