package state

// TieredStore makes total state larger than RAM: the sharded in-memory
// map becomes a byte-budgeted hot cache (clock / second-chance eviction
// per shard) over the append-only cold log in cold.go. Reads fall
// through hot → cold (promoting what they find), writes always land hot
// and are flushed to the cold log when evicted, and the incremental
// XOR-of-SHA256 state hash stays exact across tiers — for the same live
// (key, value) pairs, Hash() is bit-identical to KVStore's.
//
// Per-shard invariants:
//
//   - A key's live record is its hot entry if one exists, else its cold
//     index entry. The two may coexist: a clean hot entry (promoted from
//     cold, unmodified) always has an index entry describing an
//     identical on-disk record, so evicting it is a pure drop; a dirty
//     hot entry's index entry (if any) is stale and is rewritten when
//     the eviction flushes the new value.
//   - The shard digest XORs entryDigest over live records only, folded
//     out/in exactly as KVStore does; count tracks |hot ∪ index|.
//   - Deleting a key with an index entry appends a tombstone so the
//     recovery scan does not resurrect the on-disk record.
//
// Lock order is shard lock → log mutex, never the reverse; Apply locks
// touched shards in ascending order like KVStore.
//
// Cold-tier I/O errors after open (append, pread) panic: the store is
// the executor's committed state, and serving wrong or missing values
// would silently diverge the replica, which is strictly worse than
// crashing into recovery.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"parblockchain/internal/types"
)

// DefaultHotTierBytes is the hot-cache byte budget when the knob is 0.
const DefaultHotTierBytes = 64 << 20

// hotEntryOverhead approximates the per-entry bookkeeping bytes (struct,
// map bucket, ring slot) charged against the hot budget on top of key
// and value lengths.
const hotEntryOverhead = 96

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// Dir is the cold-tier directory. Empty means a private temp
	// directory, removed on Close — the non-durable (DataDir-less)
	// bench/test mode.
	Dir string
	// HotBytes is the total hot-cache byte budget (0 → DefaultHotTierBytes).
	HotBytes int64
	// SegmentBytes is the cold segment roll threshold (0 → DefaultColdSegmentBytes).
	SegmentBytes int64
}

// TieredStats is a point-in-time counter snapshot, for benchmarks and
// the bench Result.
type TieredStats struct {
	ColdReads     uint64 // Gets served by a cold-tier pread
	ColdBytesRead uint64 // value bytes pread from the cold tier
	Evictions     uint64 // hot entries evicted
	FlushedBytes  uint64 // dirty value bytes flushed cold by eviction
	HotKeys       int    // current hot-cache entries
	ColdKeys      int    // current cold index entries (incl. stale overlaps)
	HotBytes      int64  // current charged hot-cache bytes
}

// TieredSnap is a backend-native snapshot capture: only the dirty hot
// entries travel in the snapshot file, the cold tier is referenced by
// segment lengths — the cold fraction of the state costs no snapshot
// I/O beyond an fsync.
type TieredSnap struct {
	// Dirty holds the dirty hot entries per shard (value slices shared
	// with the store, zero-copy like SnapshotShards).
	Dirty [][]types.KV
	// Segments lists every cold segment with the byte length the
	// snapshot commits to.
	Segments []ColdSegRef
	// Hash is the full-store hash of exactly this capture.
	Hash types.Hash
	// Records is the total live record count (hot ∪ cold).
	Records uint64
	// DirtyRecords is the number of entries across Dirty.
	DirtyRecords uint64
}

type tieredShard struct {
	mu    sync.RWMutex
	hot   map[types.Key]*hotEntry
	ring  []*hotEntry // clock ring over hot entries
	hand  int
	bytes int64 // charged hot bytes
	idx   map[types.Key]coldRef
	dig   [sha256.Size]byte // XOR of entryDigest over live records (both tiers)
	count int               // live records: |hot ∪ idx|
	_     [64]byte          // pad to its own cache lines, as kvShard does
}

type hotEntry struct {
	key   types.Key
	val   []byte
	ver   uint64
	dig   [sha256.Size]byte
	dirty bool
	slot  int         // position in the clock ring
	ref   atomic.Bool // second-chance bit, settable under the shard read lock
}

// TieredStore implements Backend over a hot cache and the cold log.
type TieredStore struct {
	shards      [shardCount]tieredShard
	log         *coldLog
	shardBudget int64
	dir         string
	removeDir   bool
	closed      atomic.Bool

	coldReads     atomic.Uint64
	coldBytesRead atomic.Uint64
	evictions     atomic.Uint64
	flushedBytes  atomic.Uint64
}

// NewTieredStore creates an empty tiered store, wiping any leftover cold
// segments in the directory (a fresh store starts with no state; reuse
// an existing cold tier via OpenTieredStore).
func NewTieredStore(cfg TieredConfig) (*TieredStore, error) {
	s, err := newTieredShell(cfg)
	if err != nil {
		return nil, err
	}
	if err := wipeColdSegments(s.dir); err != nil {
		s.cleanupDir()
		return nil, err
	}
	s.log, err = newColdLog(s.dir, cfg.SegmentBytes, 1)
	if err != nil {
		s.cleanupDir()
		return nil, err
	}
	return s, nil
}

// OpenTieredStore rebuilds a tiered store from a snapshot manifest's
// cold-segment list: segments the manifest does not list are deleted,
// listed ones are truncated back to their recorded lengths (appends
// past the manifest's cut pair with WAL records that replay re-applies,
// so keeping them would double-count), and a sequential scan rebuilds
// the cold index, digests, and live count. The caller then Applies the
// manifest's dirty entries and verifies Hash against the manifest.
func OpenTieredStore(cfg TieredConfig, keep []ColdSegRef) (*TieredStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("state: OpenTieredStore needs a directory")
	}
	s, err := newTieredShell(cfg)
	if err != nil {
		return nil, err
	}
	keepBySeq := make(map[uint64]int64, len(keep))
	maxSeq := uint64(0)
	for _, ref := range keep {
		keepBySeq[ref.Seq] = ref.Len
		if ref.Seq > maxSeq {
			maxSeq = ref.Seq
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[uint64]bool, len(keep))
	for _, ent := range entries {
		seq, ok := parseColdSegmentName(ent.Name())
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, ent.Name())
		want, listed := keepBySeq[seq]
		if !listed {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		seen[seq] = true
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		if info.Size() < want {
			return nil, fmt.Errorf("state: cold segment %d is %d bytes, manifest says %d",
				seq, info.Size(), want)
		}
		if info.Size() > want {
			if err := os.Truncate(path, want); err != nil {
				return nil, err
			}
		}
	}
	for _, ref := range keep {
		if !seen[ref.Seq] {
			return nil, fmt.Errorf("state: cold segment %d missing", ref.Seq)
		}
	}
	// Scan in sequence order: within the log the newest record for a key
	// wins, and a tombstone buries the record below it.
	sorted := append([]ColdSegRef(nil), keep...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, ref := range sorted {
		err := scanColdSegment(filepath.Join(s.dir, coldSegmentName(ref.Seq)), ref.Seq,
			func(rec coldRecord, cref coldRef) {
				sh := &s.shards[shardIndex(rec.key)]
				if old, ok := sh.idx[rec.key]; ok {
					xorDigest(&sh.dig, old.dig)
					delete(sh.idx, rec.key)
					sh.count--
				}
				if rec.tomb {
					return
				}
				cref.dig = entryDigest(rec.key, rec.val)
				sh.idx[rec.key] = cref
				xorDigest(&sh.dig, cref.dig)
				sh.count++
			})
		if err != nil {
			return nil, err
		}
	}
	s.log, err = newColdLog(s.dir, cfg.SegmentBytes, maxSeq+1)
	if err != nil {
		return nil, err
	}
	for _, ref := range sorted {
		if err := s.log.openSealed(ref.Seq, ref.Len); err != nil {
			s.log.close()
			return nil, err
		}
	}
	return s, nil
}

// newTieredShell builds the store minus its cold log: shards, budget,
// and the (possibly temp) directory.
func newTieredShell(cfg TieredConfig) (*TieredStore, error) {
	hot := cfg.HotBytes
	if hot <= 0 {
		hot = DefaultHotTierBytes
	}
	s := &TieredStore{shardBudget: hot / shardCount, dir: cfg.Dir}
	if s.shardBudget < 1 {
		s.shardBudget = 1
	}
	if s.dir == "" {
		dir, err := os.MkdirTemp("", "parblockchain-cold-")
		if err != nil {
			return nil, err
		}
		s.dir, s.removeDir = dir, true
	} else if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	for i := range s.shards {
		s.shards[i].hot = make(map[types.Key]*hotEntry)
		s.shards[i].idx = make(map[types.Key]coldRef)
	}
	return s, nil
}

func (s *TieredStore) cleanupDir() {
	if s.removeDir {
		os.RemoveAll(s.dir)
	}
}

// wipeColdSegments deletes every cold segment file in dir.
func wipeColdSegments(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if _, ok := parseColdSegmentName(ent.Name()); ok {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dir returns the cold-tier directory (tests inspect segment files).
func (s *TieredStore) Dir() string { return s.dir }

func (s *TieredStore) fatalf(format string, args ...any) {
	panic(fmt.Sprintf("state: tiered store: "+format, args...))
}

// Get returns the current value of key, falling through hot → cold and
// promoting a cold hit into the hot cache. The returned slice is
// store-owned — read-only for the caller.
func (s *TieredStore) Get(key types.Key) ([]byte, bool) {
	val, _, ok := s.GetVersion(key)
	return val, ok
}

// GetVersion returns the value and version of key.
func (s *TieredStore) GetVersion(key types.Key) ([]byte, uint64, bool) {
	sh := &s.shards[shardIndex(key)]
	sh.mu.RLock()
	if e, hot := sh.hot[key]; hot {
		val, ver := e.val, e.ver
		e.ref.Store(true)
		sh.mu.RUnlock()
		return val, ver, true
	}
	ref, exists := sh.idx[key]
	sh.mu.RUnlock()
	if !exists {
		return nil, 0, false
	}
	// Cold hit: pread without the shard lock (segments are append-only,
	// so the captured ref stays readable), then promote. The value is
	// the key's live value as of the RLock above — linearizable there,
	// same as a KVStore read.
	val, err := s.log.readVal(ref)
	if err != nil {
		s.fatalf("reading %q: %v", key, err)
	}
	s.coldReads.Add(1)
	s.coldBytesRead.Add(uint64(len(val)))
	s.promote(sh, key, val, ref)
	return val, ref.ver, true
}

// promote inserts a cold-read value into the hot cache as a clean entry,
// re-checking under the write lock that the key was not concurrently
// written or deleted. Values larger than the whole shard budget are
// served without promotion — they would only thrash the clock.
func (s *TieredStore) promote(sh *tieredShard, key types.Key, val []byte, ref coldRef) {
	if int64(len(val))+hotEntryOverhead >= s.shardBudget {
		return
	}
	sh.mu.Lock()
	if _, hot := sh.hot[key]; !hot {
		if cur, ok := sh.idx[key]; ok && cur == ref {
			sh.insertHot(key, val, ref.ver, ref.dig, false)
			sh.evictOver(s)
		}
	}
	sh.mu.Unlock()
}

// Put writes one record (nil value deletes), bumping its version.
// Ownership of val transfers to the store.
func (s *TieredStore) Put(key types.Key, val []byte) {
	sh := &s.shards[shardIndex(key)]
	sh.mu.Lock()
	sh.write(s, key, val)
	sh.evictOver(s)
	sh.mu.Unlock()
}

// Apply writes a batch atomically, write-locking every touched shard in
// ascending order exactly as KVStore.Apply does.
func (s *TieredStore) Apply(writes []types.KV) {
	if len(writes) == 0 {
		return
	}
	var touched [shardCount]bool
	for i := range writes {
		touched[shardIndex(writes[i].Key)] = true
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].mu.Lock()
		}
	}
	for _, kv := range writes {
		s.shards[shardIndex(kv.Key)].write(s, kv.Key, kv.Val)
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].evictOver(s)
			s.shards[i].mu.Unlock()
		}
	}
}

// write applies one write under the shard lock, maintaining the digest,
// count, and tombstone invariants documented on the type.
func (sh *tieredShard) write(s *TieredStore, key types.Key, val []byte) {
	e, hot := sh.hot[key]
	cref, cold := sh.idx[key]
	var prevDig [sha256.Size]byte
	var prevVer uint64
	existed := false
	if hot {
		prevDig, prevVer, existed = e.dig, e.ver, true
	} else if cold {
		prevDig, prevVer, existed = cref.dig, cref.ver, true
	}
	if existed {
		xorDigest(&sh.dig, prevDig)
	}
	if val == nil {
		if hot {
			sh.removeHot(e)
		}
		if cold {
			delete(sh.idx, key)
			if _, err := s.log.append(key, 0, nil, true); err != nil {
				s.fatalf("appending tombstone for %q: %v", key, err)
			}
		}
		if existed {
			sh.count--
		}
		return
	}
	dig := entryDigest(key, val)
	xorDigest(&sh.dig, dig)
	if hot {
		sh.bytes += int64(len(val)) - int64(len(e.val))
		e.val, e.ver, e.dig, e.dirty = val, prevVer+1, dig, true
		e.ref.Store(true)
	} else {
		sh.insertHot(key, val, prevVer+1, dig, true)
	}
	if !existed {
		sh.count++
	}
}

func hotEntrySize(key types.Key, val []byte) int64 {
	return int64(len(key)) + int64(len(val)) + hotEntryOverhead
}

func (sh *tieredShard) insertHot(key types.Key, val []byte, ver uint64, dig [sha256.Size]byte, dirty bool) {
	e := &hotEntry{key: key, val: val, ver: ver, dig: dig, dirty: dirty, slot: len(sh.ring)}
	e.ref.Store(true)
	sh.hot[key] = e
	sh.ring = append(sh.ring, e)
	sh.bytes += hotEntrySize(key, val)
}

func (sh *tieredShard) removeHot(e *hotEntry) {
	last := len(sh.ring) - 1
	if e.slot != last {
		moved := sh.ring[last]
		sh.ring[e.slot] = moved
		moved.slot = e.slot
	}
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
	delete(sh.hot, e.key)
	sh.bytes -= hotEntrySize(e.key, e.val)
}

// evictOver runs the clock until the shard is back under budget. Called
// under the shard write lock.
func (sh *tieredShard) evictOver(s *TieredStore) {
	for sh.bytes > s.shardBudget && len(sh.ring) > 0 {
		sh.evictOne(s)
	}
}

// evictOne advances the clock hand to the first entry without a
// second-chance bit and evicts it: dirty entries flush their value to
// the cold log (updating the index), clean entries are promoted copies
// whose index entry already describes an identical on-disk record, so
// they just drop.
func (sh *tieredShard) evictOne(s *TieredStore) {
	for spins := 0; ; spins++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		// Two full sweeps guarantee progress even if readers keep
		// re-setting bits: the first sweep clears, the second catches.
		if spins < 2*len(sh.ring) && e.ref.CompareAndSwap(true, false) {
			sh.hand++
			continue
		}
		if e.dirty {
			ref, err := s.log.append(e.key, e.ver, e.val, false)
			if err != nil {
				s.fatalf("flushing %q: %v", e.key, err)
			}
			ref.dig = e.dig
			sh.idx[e.key] = ref
			s.flushedBytes.Add(uint64(len(e.val)))
		}
		sh.removeHot(e)
		s.evictions.Add(1)
		return
	}
}

func (s *TieredStore) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

func (s *TieredStore) runlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

func (s *TieredStore) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *TieredStore) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// Len returns the number of live records across both tiers.
func (s *TieredStore) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += s.shards[i].count
	}
	return n
}

// Hash returns the full-store digest, bit-identical to KVStore.Hash for
// the same live contents (same per-entry digests, same fold, same
// count framing).
func (s *TieredStore) Hash() types.Hash {
	var acc [sha256.Size]byte
	var count uint64
	s.rlockAll()
	for i := range s.shards {
		xorDigest(&acc, s.shards[i].dig)
		count += uint64(s.shards[i].count)
	}
	s.runlockAll()
	return foldStateHash(count, acc)
}

// foldStateHash frames the live count over the XOR accumulator — the
// shared final step of every backend's Hash.
func foldStateHash(count uint64, acc [sha256.Size]byte) types.Hash {
	h := sha256.New()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], count)
	h.Write(scratch[:])
	h.Write(acc[:])
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// Reset discards every record in both tiers (Backend.Reset; state sync
// installs a snapshot over it).
func (s *TieredStore) Reset() {
	s.lockAll()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.hot = make(map[types.Key]*hotEntry)
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.bytes = 0
		sh.idx = make(map[types.Key]coldRef)
		sh.dig = [sha256.Size]byte{}
		sh.count = 0
	}
	if err := s.log.reset(); err != nil {
		s.unlockAll()
		s.fatalf("resetting cold log: %v", err)
	}
	s.unlockAll()
}

// Snapshot returns a consistent point-in-time copy of the full
// contents. Hot values are shared slices; cold values are freshly read.
func (s *TieredStore) Snapshot() map[types.Key][]byte {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += s.shards[i].count
	}
	out := make(map[types.Key][]byte, n)
	for i := range s.shards {
		sh := &s.shards[i]
		for k, e := range sh.hot {
			out[k] = e.val
		}
		for k, ref := range sh.idx {
			if _, hot := sh.hot[k]; hot {
				continue // hot wins; a dirty entry's index ref is stale
			}
			val, err := s.log.readVal(ref)
			if err != nil {
				s.fatalf("snapshot read of %q: %v", k, err)
			}
			out[k] = val
		}
	}
	return out
}

// CaptureSnapshot freezes a backend-native snapshot under every shard
// lock: the dirty hot entries, the cold segment lengths, and the hash
// committing to exactly that cut. Appends only happen under shard
// locks, so the segment lengths are stable for the capture. The caller
// (persist) must SyncCold before the manifest referencing the segments
// becomes durable.
func (s *TieredStore) CaptureSnapshot() *TieredSnap {
	snap := &TieredSnap{Dirty: make([][]types.KV, shardCount)}
	var acc [sha256.Size]byte
	var count uint64
	s.lockAll()
	segs, err := s.log.segmentRefs()
	if err != nil {
		s.unlockAll()
		s.fatalf("capturing segment refs: %v", err)
	}
	snap.Segments = segs
	for i := range s.shards {
		sh := &s.shards[i]
		xorDigest(&acc, sh.dig)
		count += uint64(sh.count)
		var kvs []types.KV
		for k, e := range sh.hot {
			if e.dirty {
				kvs = append(kvs, types.KV{Key: k, Val: e.val})
			}
		}
		snap.Dirty[i] = kvs
		snap.DirtyRecords += uint64(len(kvs))
	}
	s.unlockAll()
	snap.Hash = foldStateHash(count, acc)
	snap.Records = count
	return snap
}

// SyncCold makes every cold-log byte durable (fsync), ordered before
// the snapshot manifest that references the segment lengths.
func (s *TieredStore) SyncCold() error {
	return s.log.sync()
}

// Stats returns a snapshot of the tier counters.
func (s *TieredStore) Stats() TieredStats {
	st := TieredStats{
		ColdReads:     s.coldReads.Load(),
		ColdBytesRead: s.coldBytesRead.Load(),
		Evictions:     s.evictions.Load(),
		FlushedBytes:  s.flushedBytes.Load(),
	}
	s.rlockAll()
	for i := range s.shards {
		st.HotKeys += len(s.shards[i].hot)
		st.ColdKeys += len(s.shards[i].idx)
		st.HotBytes += s.shards[i].bytes
	}
	s.runlockAll()
	return st
}

// Close flushes and closes the cold log (and removes the temp directory
// when the store created one). The store must not be used afterwards.
func (s *TieredStore) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.log.close()
	if s.removeDir {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

var _ Backend = (*TieredStore)(nil)
