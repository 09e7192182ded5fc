package state

// This file implements the disk-resident cold tier behind TieredStore:
// an append-only log of checksummed segment files plus the in-memory
// index entries that locate live records inside them. The framing
// resembles persist's segment files (magic + sequence header, CRC-32C
// framed records).
//
// Why this is not a persist.RecordLog, the one segmented log every
// other durable role runs on: the cold tier is an offset-addressed value
// log, not a dense-index record log. Appends are buffered, a value is
// fetched by pread at the byte offset its index entry holds, recovery
// truncates each segment to the byte length a snapshot manifest
// recorded (not to a record index), and the recovery scan is strict —
// there is no torn tail to forgive, because bytes past the manifest's
// cut are discarded by construction. A RecordLog could serve those only
// by branching on which caller it has, and state cannot import persist
// (persist imports state). So the two stay separate on purpose.
//
// Segment layout:
//
//	magic (8)  | "PBCOLD01"
//	u64        | segment sequence number
//	frames     | [u32 body len][u32 CRC-32C(body)][body]
//
// A frame body is one cold record: Str key, presence byte (1 = value,
// 0 = tombstone), and for values the u64 version and Blob value. Records
// are appended by hot-cache eviction (dirty entries) and deletion
// (tombstones, so a recovery scan does not resurrect the on-disk
// record); within the log the newest record for a key wins. Segments are
// never rewritten in place; reclaiming space dead records pin is the
// compaction follow-on in ROADMAP.md.
//
// Durability contract: sealed segments are fsynced when they roll; the
// active segment is fsynced by Sync() before a snapshot manifest
// commits to its length. Recovery (OpenTieredStore) deletes segments a
// manifest does not list and truncates listed ones back to their
// recorded lengths, so bytes appended after the manifest's cut — which
// pair with WAL records that replay re-applies — are discarded rather
// than double-counted.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"parblockchain/internal/types"
)

const (
	coldMagic     = "PBCOLD01"
	coldHeaderLen = 16 // magic + u64 sequence
	coldFrameLen  = 8  // u32 body length + u32 CRC-32C

	// maxColdRecordBytes bounds one frame body so a corrupt length prefix
	// fails the recovery scan cleanly instead of driving a giant
	// allocation.
	maxColdRecordBytes = 256 << 20
)

// DefaultColdSegmentBytes is the cold log's segment roll threshold.
const DefaultColdSegmentBytes = 16 << 20

// coldCastagnoli is the CRC-32C table for cold-segment frames — the same
// polynomial the persist WAL and snapshots use.
var coldCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ColdSegRef names one cold segment and the byte length a snapshot
// manifest vouches for. Recovery truncates the file back to Len.
type ColdSegRef struct {
	Seq uint64
	Len int64
}

// coldRef locates one live record in the cold log: the absolute file
// offset and length of its value bytes (for a single pread on a cold
// Get), plus the version and cached entry digest so overwrites and
// deletes fold the old record out of the shard digest without touching
// disk.
type coldRef struct {
	seg  uint64
	off  int64 // absolute offset of the value bytes within the segment
	vlen uint32
	ver  uint64
	dig  [sha256.Size]byte
}

// coldRecord is one decoded cold-log frame body.
type coldRecord struct {
	key  types.Key
	ver  uint64
	val  []byte
	tomb bool
}

// marshalColdRecord encodes one frame body.
func marshalColdRecord(rec *coldRecord) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	encodeColdRecord(w, rec.key, rec.ver, rec.val, rec.tomb)
	return w.CloneBytes()
}

func encodeColdRecord(w *types.ByteWriter, key types.Key, ver uint64, val []byte, tomb bool) {
	w.Str(string(key))
	if tomb {
		w.Byte(0)
		return
	}
	w.Byte(1)
	w.U64(ver)
	w.Blob(val)
}

// decodeColdRecord decodes one frame body. Malformed input returns an
// error, never panics (fuzzed).
func decodeColdRecord(body []byte) (coldRecord, error) {
	r := types.NewByteReader(body)
	rec := coldRecord{key: types.Key(r.Str())}
	switch r.Byte() {
	case 0:
		rec.tomb = true
	case 1:
		rec.ver = r.U64()
		rec.val = r.Blob()
		if rec.val == nil {
			rec.val = []byte{}
		}
	default:
		r.Fail()
	}
	if err := types.FinishDecode(r, "cold record"); err != nil {
		return coldRecord{}, err
	}
	return rec, nil
}

// coldValOffset returns the offset of the value bytes within a value
// record's frame body: key length prefix + key + presence byte +
// version + value length prefix.
func coldValOffset(keyLen int) int64 {
	return 8 + int64(keyLen) + 1 + 8 + 8
}

func coldSegmentName(seq uint64) string {
	return fmt.Sprintf("cold-%016x.seg", seq)
}

// parseColdSegmentName extracts the sequence number from a cold segment
// file name, reporting whether the name is one.
func parseColdSegmentName(name string) (uint64, bool) {
	const prefix, suffix = "cold-", ".seg"
	if len(name) != len(prefix)+16+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(prefix)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// coldLog is the append-only segment log. One mutex guards the writer
// state; reads of sealed bytes go straight to ReadAt without it. Lock
// order is always shard lock → log mutex, never the reverse.
type coldLog struct {
	mu       sync.Mutex
	dir      string
	segBytes int64

	seq     uint64 // active segment sequence
	f       *os.File
	w       *bufio.Writer
	size    int64 // logical size of the active segment, including buffered bytes
	flushed int64 // prefix of the active segment visible to ReadAt

	sealed map[uint64]*coldSegment
}

// coldSegment is one sealed (rolled) segment: fsynced, immutable, read
// through a retained handle.
type coldSegment struct {
	f    *os.File
	size int64
}

// newColdLog opens a log in dir with the given roll threshold and
// creates the first active segment with sequence firstSeq. The caller
// has already prepared dir (created it, pruned or truncated segments).
func newColdLog(dir string, segBytes int64, firstSeq uint64) (*coldLog, error) {
	if segBytes <= 0 {
		segBytes = DefaultColdSegmentBytes
	}
	l := &coldLog{dir: dir, segBytes: segBytes, sealed: make(map[uint64]*coldSegment)}
	if err := l.createSegmentLocked(firstSeq); err != nil {
		return nil, err
	}
	return l, nil
}

// createSegmentLocked creates and syncs a fresh active segment.
func (l *coldLog) createSegmentLocked(seq uint64) error {
	path := filepath.Join(l.dir, coldSegmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	var hdr [coldHeaderLen]byte
	copy(hdr[:8], coldMagic)
	binary.BigEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncColdDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.seq, l.f, l.size, l.flushed = seq, f, coldHeaderLen, coldHeaderLen
	l.w = bufio.NewWriterSize(f, 256<<10)
	return nil
}

// openSealed attaches an existing, already-truncated segment as sealed.
func (l *coldLog) openSealed(seq uint64, size int64) error {
	f, err := os.Open(filepath.Join(l.dir, coldSegmentName(seq)))
	if err != nil {
		return err
	}
	l.sealed[seq] = &coldSegment{f: f, size: size}
	return nil
}

// append writes one record and returns the ref locating its value bytes
// (zero ref for tombstones). The caller fills in the digest.
func (l *coldLog) append(key types.Key, ver uint64, val []byte, tomb bool) (coldRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size >= l.segBytes && l.size > coldHeaderLen {
		if err := l.rollLocked(); err != nil {
			return coldRef{}, err
		}
	}
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(0) // frame header placeholder: u32 len | u32 crc
	encodeColdRecord(w, key, ver, val, tomb)
	body := w.Bytes()[coldFrameLen:]
	w.PatchU64(0, uint64(len(body))<<32|uint64(crc32.Checksum(body, coldCastagnoli)))
	if _, err := l.w.Write(w.Bytes()); err != nil {
		return coldRef{}, err
	}
	frameStart := l.size
	l.size += int64(len(w.Bytes()))
	if tomb {
		return coldRef{}, nil
	}
	return coldRef{
		seg:  l.seq,
		off:  frameStart + coldFrameLen + coldValOffset(len(key)),
		vlen: uint32(len(val)),
		ver:  ver,
	}, nil
}

// rollLocked seals the active segment (flush + fsync, handle retained
// for reads) and starts the next one.
func (l *coldLog) rollLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.sealed[l.seq] = &coldSegment{f: l.f, size: l.size}
	return l.createSegmentLocked(l.seq + 1)
}

// readVal preads one record's value bytes. Safe without the log mutex
// for sealed bytes; reads into the active segment's unflushed suffix
// take the mutex to flush first. The returned slice is freshly
// allocated, so it satisfies the zero-copy ownership contract as a
// store-owned value.
func (l *coldLog) readVal(ref coldRef) ([]byte, error) {
	l.mu.Lock()
	var f *os.File
	switch {
	case ref.seg == l.seq:
		if ref.off+int64(ref.vlen) > l.flushed {
			if err := l.w.Flush(); err != nil {
				l.mu.Unlock()
				return nil, err
			}
			l.flushed = l.size
		}
		f = l.f
	default:
		ss, ok := l.sealed[ref.seg]
		if !ok {
			l.mu.Unlock()
			return nil, fmt.Errorf("cold segment %d not open", ref.seg)
		}
		f = ss.f
	}
	l.mu.Unlock()
	buf := make([]byte, ref.vlen)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("cold segment %d @%d: %w", ref.seg, ref.off, err)
	}
	return buf, nil
}

// segmentRefs flushes the writer and returns every segment with its
// current durable-after-Sync length, sorted by sequence — the manifest
// a snapshot commits to. The caller must prevent concurrent appends
// (TieredStore.CaptureSnapshot holds every shard lock, and appends only
// happen under a shard lock).
func (l *coldLog) segmentRefs() ([]ColdSegRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	l.flushed = l.size
	refs := make([]ColdSegRef, 0, len(l.sealed)+1)
	for seq, ss := range l.sealed {
		refs = append(refs, ColdSegRef{Seq: seq, Len: ss.size})
	}
	refs = append(refs, ColdSegRef{Seq: l.seq, Len: l.size})
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	return refs, nil
}

// sync makes every appended byte durable: sealed segments were fsynced
// at roll, so only the active segment (and nothing about the directory,
// unchanged since creation) needs it.
func (l *coldLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.flushed = l.size
	return l.f.Sync()
}

// reset closes and deletes every segment and starts an empty log at
// sequence 1 (Backend.Reset: state sync replaces the whole state).
func (l *coldLog) reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	record := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	record(l.f.Close())
	record(os.Remove(filepath.Join(l.dir, coldSegmentName(l.seq))))
	for seq, ss := range l.sealed {
		record(ss.f.Close())
		record(os.Remove(filepath.Join(l.dir, coldSegmentName(seq))))
	}
	l.sealed = make(map[uint64]*coldSegment)
	if err := l.createSegmentLocked(1); err != nil {
		record(err)
	}
	return firstErr
}

// close flushes and closes every handle.
func (l *coldLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if err := l.w.Flush(); err != nil {
		firstErr = err
	}
	if err := l.f.Close(); firstErr == nil {
		firstErr = err
	}
	for _, ss := range l.sealed {
		if err := ss.f.Close(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scanColdSegment streams one segment's frames in append order, calling
// apply for each decoded record with the ref locating its value bytes.
// Any malformed frame is an error: recovery truncated the file to a
// manifest-recorded length, so unlike the WAL there is no legitimate
// torn tail to tolerate.
func scanColdSegment(path string, wantSeq uint64, apply func(rec coldRecord, ref coldRef)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [coldHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%s: header: %w", path, err)
	}
	if string(hdr[:8]) != coldMagic {
		return fmt.Errorf("%s: bad magic", path)
	}
	if seq := binary.BigEndian.Uint64(hdr[8:]); seq != wantSeq {
		return fmt.Errorf("%s: header sequence %d, want %d", path, seq, wantSeq)
	}
	off := int64(coldHeaderLen)
	var frame [coldFrameLen]byte
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("%s @%d: frame header: %w", path, off, err)
		}
		n := binary.BigEndian.Uint32(frame[:4])
		crc := binary.BigEndian.Uint32(frame[4:])
		if n > maxColdRecordBytes {
			return fmt.Errorf("%s @%d: frame of %d bytes exceeds limit", path, off, n)
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return fmt.Errorf("%s @%d: frame body: %w", path, off, err)
		}
		if crc32.Checksum(body, coldCastagnoli) != crc {
			return fmt.Errorf("%s @%d: frame checksum mismatch", path, off)
		}
		rec, err := decodeColdRecord(body)
		if err != nil {
			return fmt.Errorf("%s @%d: %w", path, off, err)
		}
		ref := coldRef{seg: wantSeq, ver: rec.ver, vlen: uint32(len(rec.val))}
		if !rec.tomb {
			ref.off = off + coldFrameLen + coldValOffset(len(rec.key))
		}
		apply(rec, ref)
		off += coldFrameLen + int64(n)
	}
}

// syncColdDir fsyncs the cold directory so a just-created segment's
// entry survives a crash (mirrors persist.syncDir; duplicated to keep
// the import direction persist → state).
func syncColdDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
