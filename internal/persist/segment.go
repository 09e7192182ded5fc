package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"parblockchain/internal/types"
)

// The segment-file format every RecordLog shares. A log is a sequence
// of segment files in one directory, each named by its prefix and the
// index of its first record:
//
//	<prefix>-<index, 16 hex digits>.seg
//
// ("wal" for the executor's block records, "olog" and "kafka" on the
// ordering side). A segment starts with an 8-byte magic and its
// start index, followed by length-prefixed, CRC-32C-checksummed frames:
//
//	magic (8)  | "PBWALS01"
//	u64        | start index
//	frames     | [u32 body length][u32 CRC-32C(body)][body]
//
// Frames are written in strictly increasing index order, so record N of
// a segment starting at index S is record S+N. This file only reads and
// writes that format; which segments exist, which one is active and
// what a torn frame means are RecordLog's business (reclog.go).

var walMagic = [8]byte{'P', 'B', 'W', 'A', 'L', 'S', '0', '1'}

const (
	walHeaderLen = len(walMagic) + 8
	walFrameLen  = 8 // u32 length + u32 crc
	// maxWALRecordBytes bounds a single record frame on read: far above
	// any real block (blocks are cut at ~2 MB), far below what a corrupt
	// length prefix could otherwise make the reader allocate.
	maxWALRecordBytes = 256 << 20
)

// segmentFileName formats a segment file name for its start index.
func segmentFileName(prefix string, start uint64) string {
	return fmt.Sprintf("%s-%016x.seg", prefix, start)
}

// parseHeightName extracts the 16-hex-digit number from a file named
// "<prefix><number><suffix>" — the naming scheme segments and snapshots
// share.
func parseHeightName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	h, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return h, true
}

// listSegmentFiles returns the start indices of every segment with the
// given prefix in dir, ascending.
func listSegmentFiles(dir, prefix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	starts := make([]uint64, 0, len(entries))
	for _, e := range entries {
		if start, ok := parseHeightName(e.Name(), prefix+"-", ".seg"); ok {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// createSegmentFile creates (truncating any leftover) a prefix-named
// segment file for records starting at the given index and durably
// records its directory entry.
func createSegmentFile(dir, prefix string, start uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentFileName(prefix, start))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic[:])
	binary.BigEndian.PutUint64(hdr[len(walMagic):], start)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// appendFrame encodes one record body as a frame — the 8-byte header is
// reserved up front in a pooled writer and patched once the body is in
// place — and appends it to the segment: a single file write, no
// intermediate copy of the record.
func appendFrame(f *os.File, encode func(*types.ByteWriter)) (int, error) {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.U64(0) // header placeholder: [u32 body len][u32 crc], patched below
	encode(w)
	body := w.Bytes()[walFrameLen:]
	w.PatchU64(0, uint64(len(body))<<32|uint64(crc32.Checksum(body, castagnoli)))
	if _, err := f.Write(w.Bytes()); err != nil {
		return 0, err
	}
	return w.Len(), nil
}

// errTornTail reports a frame that ends mid-write: a short header, a
// short body, or a checksum mismatch at the end of a segment.
var errTornTail = errors.New("persist: torn segment tail")

// replaySegmentFile streams a segment's records through fn in order,
// stopping at the first torn frame. It returns the byte offset of the
// valid prefix (for truncation) and errTornTail if the tail was torn;
// any other error aborts the replay.
func replaySegmentFile(path, prefix string, fn func(body []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, errTornTail // header never completed: treat as empty
	}
	if [8]byte(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("persist: segment %s has bad magic", path)
	}
	name := filepath.Base(path)
	if start, ok := parseHeightName(name, prefix+"-", ".seg"); !ok ||
		start != binary.BigEndian.Uint64(hdr[len(walMagic):]) {
		return 0, fmt.Errorf("persist: segment %s header index does not match its name", path)
	}
	offset := int64(walHeaderLen)
	var fh [walFrameLen]byte
	for {
		if _, err := io.ReadFull(f, fh[:]); err != nil {
			if err == io.EOF {
				return offset, nil // clean end
			}
			return offset, errTornTail
		}
		n := binary.BigEndian.Uint32(fh[0:])
		want := binary.BigEndian.Uint32(fh[4:])
		if n == 0 || n > maxWALRecordBytes {
			return offset, errTornTail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			return offset, errTornTail
		}
		if crc32.Checksum(body, castagnoli) != want {
			return offset, errTornTail
		}
		if err := fn(body); err != nil {
			return offset, err
		}
		offset += int64(walFrameLen) + int64(n)
	}
}
