// Package persist is the durability subsystem of the reproduction:
//
//   - RecordLog (reclog.go, segment.go): the only segmented-log
//     implementation in the repository. The orderer's cut log and the
//     Kafka adapter open it directly; the executor's WAL is a
//     RecordLog whose record index is the block height.
//   - Manager (this file, sync.go): an executor's durability — that WAL
//     of finalization events, periodic snapshots of the state store, the
//     crash-recovery path that rebuilds the store, the ledger and the
//     admission height from snapshot + WAL tail, and the range readers
//     and snapshot adoption that peer state sync uses.
//   - the snapshot image codec (snapshot.go): one writer and one
//     reader for the single snapshot format, PBSNAP01.
//   - WriteFileAtomic (atomicfile.go): the one tmp-write → fsync →
//     rename → fsync-dir sequence every replaced file goes through.
//
// # Contract
//
// The executor appends one BlockRecord — block, final results, state
// delta, quorum evidence, post-apply state hash — at its in-order
// finalize boundary, and fsyncs before any of the block's effects are
// externalized (OnCommit hooks, client notifications). The pipeline
// finalizes completed blocks in batches, and the blocks of one batch
// share a single fsync — the pipelined window amortizes the durability
// cost that a strict per-block fsync would put on the hot path. Appends
// never sync on their own; Sync, Roll and Close sync whatever is dirty.
//
// Every SnapshotInterval blocks the store is frozen (consistently, via
// state.KVStore.SnapshotShards) and written to disk in the background;
// once the snapshot is durable, WAL segments entirely below it are
// deleted. Recovery therefore reads one snapshot and replays only the
// WAL tail above it, verifying the store's incremental XOR-of-SHA256
// hash against every record on the way; it never replays the full
// chain.
//
// A node with an empty Config.Dir runs exactly as before this subsystem
// existed: callers gate on the manager being nil.
package persist

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// Defaults for Config's zero values.
const (
	DefaultSnapshotInterval = 1024
	DefaultSegmentBytes     = 64 << 20
)

// Config parameterizes one node's durability manager.
type Config struct {
	// Dir is the node's data directory; wal/ and snap/ live under it.
	Dir string
	// SnapshotInterval is the number of blocks between state snapshots
	// (and WAL truncations). Zero means DefaultSnapshotInterval; it must
	// not be negative (Open rejects it), so the WAL stays bounded.
	SnapshotInterval int
	// SegmentBytes rolls the WAL to a fresh segment file once the
	// current one exceeds this size. Zero means DefaultSegmentBytes.
	SegmentBytes int
	// Logf receives diagnostics; nil uses the stdlib logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = DefaultSnapshotInterval
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats exposes durability counters for benchmarks and tests.
type Stats struct {
	// Appends counts WAL records written.
	Appends uint64
	// Syncs counts fsyncs issued on WAL segments (the group-commit
	// amortization shows as Syncs < Appends when a finalize batch holds
	// several blocks).
	Syncs uint64
	// Snapshots counts state snapshots durably written.
	Snapshots uint64
	// SnapshotsSkipped counts snapshot points skipped because a previous
	// snapshot write was still in flight.
	SnapshotsSkipped uint64
}

// Recovered is the state rebuilt by Open: the restored store and ledger,
// plus provenance for assertions and logs.
type Recovered struct {
	// Store is the state store at the recovered height. The caller owns
	// it once Open returns.
	Store *state.KVStore
	// Ledger resumes at the snapshot base with the replayed WAL tail
	// appended; its Height is the executor's restart admission height.
	Ledger *ledger.Ledger
	// SnapshotHeight is the height of the snapshot recovery started from.
	SnapshotHeight uint64
	// Replayed is the number of WAL records applied on top of it.
	Replayed int
}

// Manager owns a node's WAL and snapshot machinery. LogBlock/Sync are
// called from the executor's actor goroutine; MaybeSnapshot captures
// state synchronously and writes in the background; Close drains the
// background writer. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	snapDir string

	lock *os.File   // exclusive advisory lock on Dir, held until Close/Crash
	log  *RecordLog // the WAL: <Dir>/wal, record index = block height

	mu       sync.Mutex // orders LogBlock's height check with its append
	lastSnap uint64     // height of the newest scheduled-or-restored snapshot
	// durableSnap is the height of the newest snapshot whose file is known
	// written (restored, adopted, or a background write that succeeded).
	// A WAL roll prunes only below it: pruning below a merely scheduled
	// snapshot would leave a WAL gap above the older one if the write fails.
	durableSnap uint64
	closed      bool

	snapBusy atomic.Bool
	snapWG   sync.WaitGroup

	stats struct {
		snaps       atomic.Uint64
		snapSkipped atomic.Uint64
	}
}

// Open mounts the durability state under cfg.Dir, creating it if absent.
// On a fresh directory the genesis records seed the store and become the
// height-0 snapshot; otherwise genesis is ignored and the state is
// rebuilt from the newest snapshot plus the WAL tail, with every
// replayed record's post-apply state hash verified. The returned manager
// is ready for appends at the recovered height.
func Open(cfg Config, genesis []types.KV) (*Manager, *Recovered, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, nil, errors.New("persist: Config.Dir is required")
	}
	if cfg.SnapshotInterval < 0 {
		return nil, nil, errors.New("persist: Config.SnapshotInterval must be >= 0")
	}
	walDir := filepath.Join(cfg.Dir, "wal")
	m := &Manager{cfg: cfg, snapDir: filepath.Join(cfg.Dir, "snap")}
	for _, d := range []string{walDir, m.snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("persist: %w", err)
		}
	}
	lock, err := acquireDirLock(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	m.lock = lock
	var (
		man   *Manifest
		store *state.KVStore
	)
	opened := false
	defer func() {
		if !opened {
			lock.Close()
			if m.log != nil {
				m.log.Close()
			}
		}
	}()
	snaps, err := listSnapshots(m.snapDir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	segs, err := listSegmentFiles(walDir, "wal")
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}

	switch {
	case len(snaps) == 0 && len(segs) == 0:
		// Fresh directory: seed the store and make genesis durable as the
		// height-0 snapshot, so recovery always has a snapshot below the
		// WAL (genesis writes never travel through a block).
		store = state.Load(genesis)
		write := m.captureSnapshot(0, types.ZeroHash, store)
		if err := write(); err != nil {
			return nil, nil, err
		}
		hash := store.Hash()
		man = &Manifest{Height: 0, LastHash: types.ZeroHash, StateHash: hash,
			Records: uint64(store.Len())}
	case len(snaps) == 0:
		return nil, nil, fmt.Errorf("persist: %s holds WAL segments but no snapshot", cfg.Dir)
	default:
		// Newest first; fall back across corrupt snapshots (replay below
		// will fail loudly if the WAL no longer reaches back that far).
		for i := len(snaps) - 1; i >= 0; i-- {
			man, store, err = loadSnapshot(m.snapPath(snaps[i]))
			if errors.Is(err, errTieredSnapshot) {
				return nil, nil, err
			}
			if err == nil {
				break
			}
			cfg.Logf("persist: skipping snapshot at height %d: %v", snaps[i], err)
		}
		if store == nil {
			return nil, nil, fmt.Errorf("persist: no readable snapshot under %s (last error: %w)",
				m.snapDir, err)
		}
	}

	led := ledger.NewAt(man.Height, man.LastHash)
	replayed := 0
	// Replay applies every record at or above the snapshot height, in
	// order, verifying the index, chain contiguity and the incremental
	// state hash; the log itself verifies frame checksums, truncates a
	// torn tail in the newest segment and fails on corruption anywhere
	// else.
	m.log, err = OpenRecordLog(RecordLogConfig{
		Dir:          walDir,
		Prefix:       "wal",
		SegmentBytes: int64(cfg.SegmentBytes),
		Logf:         cfg.Logf,
	}, func(idx uint64, body []byte) error {
		rec, err := UnmarshalBlockRecord(body)
		if err != nil {
			// The frame passed its checksum, so this is not a torn write —
			// the record itself is corrupt or from the future.
			return fmt.Errorf("persist: WAL record %d: %w", idx, err)
		}
		num := rec.Block.Header.Number
		if num != idx {
			return fmt.Errorf("persist: WAL record %d holds block %d", idx, num)
		}
		if num < man.Height {
			return nil // folded into the snapshot already
		}
		if num != led.Height() {
			return fmt.Errorf("persist: WAL record for block %d, expected %d (WAL gap?)",
				num, led.Height())
		}
		store.Apply(rec.Delta)
		if got := store.Hash(); got != rec.StateHash {
			return fmt.Errorf("persist: block %d replay state hash mismatch: got %s want %s",
				num, got, rec.StateHash)
		}
		if err := led.Append(ledger.Entry{Block: rec.Block, Results: rec.Results}); err != nil {
			return fmt.Errorf("persist: WAL record %d: %w", idx, err)
		}
		replayed++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	switch next := m.log.NextIndex(); {
	case next < man.Height:
		// The log ends below the snapshot — an adoption that crashed before
		// its reset, or a wal/ directory lost under a kept snapshot: none of
		// it is needed, and appends must resume at the snapshot height.
		if err := m.log.Reset(man.Height); err != nil {
			return nil, nil, err
		}
	case next != led.Height():
		return nil, nil, fmt.Errorf("persist: WAL resumes at %d but the recovered ledger is at %d",
			next, led.Height())
	}
	m.lastSnap, m.durableSnap = man.Height, man.Height
	opened = true
	return m, &Recovered{
		Store:          store,
		Ledger:         led,
		SnapshotHeight: man.Height,
		Replayed:       replayed,
	}, nil
}

// errTieredSnapshot marks a snapshot written by the retired tiered
// state backend (magic PBSNAP02). Open refuses such a directory outright
// rather than falling back to an older snapshot or booting empty.
var errTieredSnapshot = errors.New("snapshot is in the retired tiered format")

// loadSnapshot reads and verifies one snapshot file.
func loadSnapshot(path string) (*Manifest, *state.KVStore, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(raw) >= 8 && string(raw[:8]) == "PBSNAP02" {
		return nil, nil, fmt.Errorf("persist: %s: %w; delete the data directory and let "+
			"the executor rejoin through state sync from a peer", path, errTieredSnapshot)
	}
	man, store, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	return man, store, nil
}

// captureSnapshot freezes the store consistently at the finalize
// boundary (synchronously — the caller holds height, lastHash, and the
// store mutually consistent) and returns a closure that writes the
// capture durably, run inline at genesis and in the background by
// MaybeSnapshot.
func (m *Manager) captureSnapshot(height uint64, lastHash types.Hash, store *state.KVStore) func() error {
	path := m.snapPath(height)
	shards, hash := store.SnapshotShards()
	man := &Manifest{
		Height:    height,
		LastHash:  lastHash,
		StateHash: hash,
		Shards:    uint64(len(shards)),
		Records:   countRecords(shards),
	}
	return func() error {
		return writeSnapshotFile(path, man.Marshal(), shards)
	}
}

// LogBlock appends one finalization record to the WAL. Records must
// arrive in strict height order. Durability is deferred to the next
// Sync.
func (m *Manager) LogBlock(rec *BlockRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("persist: manager closed")
	}
	num := rec.Block.Header.Number
	if next := m.log.NextIndex(); num != next {
		return fmt.Errorf("persist: WAL record for block %d, expected %d", num, next)
	}
	if m.log.Full() {
		if err := m.log.Roll(); err != nil {
			return err
		}
		// The just-sealed segment may sit entirely below the newest durable
		// snapshot (it was the active segment when that snapshot pruned, so
		// it had to be kept); now that it is sealed, retire it.
		m.pruneLog(m.durableSnap)
	}
	if _, err := m.log.AppendWith(rec.marshalTo); err != nil {
		return fmt.Errorf("persist: appending block %d: %w", num, err)
	}
	return nil
}

// Sync makes every record appended so far durable: one fsync for the
// whole batch, or none when nothing was appended since the last one.
func (m *Manager) Sync() error { return m.log.Sync() }

// MaybeSnapshot takes a state snapshot if the configured interval has
// elapsed since the last one. The store content (and its hash) are
// captured synchronously — the caller invokes this at the finalize
// boundary, where height, lastHash, and the store are mutually
// consistent — and written to disk in the background; once durable, WAL
// segments entirely below the snapshot are deleted. At most one snapshot
// write is in flight; an elapsed interval during a write is skipped and
// counted.
func (m *Manager) MaybeSnapshot(height uint64, lastHash types.Hash, store *state.KVStore) {
	m.mu.Lock()
	due := !m.closed && height >= m.lastSnap+uint64(m.cfg.SnapshotInterval)
	m.mu.Unlock()
	if !due {
		return
	}
	if !m.snapBusy.CompareAndSwap(false, true) {
		m.stats.snapSkipped.Add(1)
		return
	}
	write := m.captureSnapshot(height, lastHash, store)
	m.mu.Lock()
	m.lastSnap = height
	m.mu.Unlock()
	m.snapWG.Add(1)
	go func() {
		defer m.snapWG.Done()
		defer m.snapBusy.Store(false)
		if err := write(); err != nil {
			// The previous snapshot (and the un-truncated WAL above it)
			// still fully covers recovery; log and move on.
			m.cfg.Logf("persist: snapshot at height %d failed: %v", height, err)
			return
		}
		m.stats.snaps.Add(1)
		m.mu.Lock()
		m.durableSnap = max(m.durableSnap, height)
		m.mu.Unlock()
		m.pruneBelow(height)
	}()
}

// pruneBelow deletes WAL segments whose records all sit below the new
// snapshot, and snapshot files older than it.
func (m *Manager) pruneBelow(height uint64) {
	m.pruneLog(height)
	m.pruneSnapshots(height)
}

// pruneSnapshots deletes snapshot files older than height.
func (m *Manager) pruneSnapshots(height uint64) {
	snaps, err := listSnapshots(m.snapDir)
	if err != nil {
		m.cfg.Logf("persist: pruning snapshots: %v", err)
		return
	}
	for _, h := range snaps {
		if h < height {
			if err := os.Remove(m.snapPath(h)); err != nil {
				m.cfg.Logf("persist: pruning snapshot %d: %v", h, err)
			}
		}
	}
}

// pruneLog removes sealed WAL segments whose records all sit below
// height. The active segment is never removed; the next roll retires it
// if it is still below the newest snapshot then.
func (m *Manager) pruneLog(height uint64) {
	if err := m.log.PruneTo(height); err != nil {
		m.cfg.Logf("persist: pruning WAL below %d: %v", height, err)
	}
}

// Close drains the background snapshot writer, syncs any unsynced tail
// (unless the policy is never), closes the WAL, and releases the
// directory lock.
func (m *Manager) Close() error { return m.shutdown((*RecordLog).Close) }

// Crash simulates a machine crash for tests: every byte of the active
// WAL segment that was never fsynced is discarded — exactly what a
// power loss does to the page cache — and the manager becomes unusable
// without any final sync. In-flight background snapshot writes are
// drained first (a snapshot either fully lands via its atomic rename or
// does not exist; either is a legal crash outcome). Tests use it to
// prove the recovery contract depends only on what was durable at the
// kill point, not on a graceful close.
func (m *Manager) Crash() error { return m.shutdown((*RecordLog).Crash) }

func (m *Manager) shutdown(stopLog func(*RecordLog) error) error {
	m.snapWG.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	err := stopLog(m.log)
	// Crash releases the flock too: a dead process holds none.
	if cerr := m.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the durability counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:          m.log.appends.Load(),
		Syncs:            m.log.syncs.Load(),
		Snapshots:        m.stats.snaps.Load(),
		SnapshotsSkipped: m.stats.snapSkipped.Load(),
	}
}

// Dir returns the manager's data directory.
func (m *Manager) Dir() string { return m.cfg.Dir }

func (m *Manager) snapPath(height uint64) string {
	return filepath.Join(m.snapDir, fmt.Sprintf("snap-%016x.snap", height))
}

// acquireDirLock takes an exclusive advisory flock on Dir/LOCK so a
// second process (a double-started node, a supervisor racing a wedged
// instance) cannot mount the same data directory and interleave WAL
// appends with the first. The kernel releases the lock when the holding
// process exits, however it died, so a crashed node never wedges its own
// restart.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// listSnapshots returns the heights of every snapshot file, ascending.
func listSnapshots(snapDir string) ([]uint64, error) {
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		return nil, err
	}
	heights := make([]uint64, 0, len(entries))
	for _, e := range entries {
		if h, ok := parseHeightName(e.Name(), "snap-", ".snap"); ok {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	return heights, nil
}

func countRecords(shards [][]types.KV) uint64 {
	var n uint64
	for _, kvs := range shards {
		n += uint64(len(kvs))
	}
	return n
}
