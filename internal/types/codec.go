package types

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// This file implements a compact, deterministic binary codec for
// transactions and results. Consensus payloads and TCP frames use it
// instead of encoding/gob because the hot ordering path serializes every
// transaction once per submission, and gob's per-stream type headers and
// reflection cost dominate at the throughput targets of the evaluation.

// ErrCodec reports a malformed encoding.
var ErrCodec = errors.New("types: malformed encoding")

// ByteWriter builds length-prefixed binary encodings. The zero value is
// ready to use.
type ByteWriter struct {
	buf []byte
}

// writerPool recycles codec buffers across the hot encoding paths
// (transaction marshaling, message digests): the ordering pipeline
// serializes every transaction at least once per submission, and without
// pooling each encode pays the writer allocation plus its growth
// reallocations.
var writerPool = sync.Pool{
	New: func() any { return &ByteWriter{buf: make([]byte, 0, 512)} },
}

// maxPooledWriterCap bounds the capacity of buffers returned to the pool
// so one giant encoding does not pin memory for the process lifetime.
const maxPooledWriterCap = 64 << 10

// AcquireWriter returns an empty writer from the pool. Release it with
// ReleaseWriter when the encoding is no longer referenced; if the encoded
// bytes must outlive the writer, copy them out with CloneBytes first.
func AcquireWriter() *ByteWriter {
	w := writerPool.Get().(*ByteWriter)
	w.Reset()
	return w
}

// ReleaseWriter returns a writer to the pool. The caller must not touch
// the writer or any un-cloned Bytes() result afterwards.
func ReleaseWriter(w *ByteWriter) {
	if cap(w.buf) > maxPooledWriterCap {
		return
	}
	writerPool.Put(w)
}

// Reset empties the writer, retaining its capacity.
func (w *ByteWriter) Reset() { w.buf = w.buf[:0] }

// Len returns the number of bytes written so far, usable as an offset for
// PatchU64.
func (w *ByteWriter) Len() int { return len(w.buf) }

// PatchU64 overwrites the 8 bytes at off with a big-endian uint64,
// backfilling a length prefix written as a placeholder before the data.
func (w *ByteWriter) PatchU64(off int, v uint64) {
	binary.BigEndian.PutUint64(w.buf[off:], v)
}

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer: it is valid only until the writer is reset or released.
func (w *ByteWriter) Bytes() []byte { return w.buf }

// CloneBytes returns an exact-size copy of the accumulated encoding,
// safe to retain after the writer is released.
func (w *ByteWriter) CloneBytes() []byte {
	return append(make([]byte, 0, len(w.buf)), w.buf...)
}

// U64 appends a fixed-width big-endian uint64.
func (w *ByteWriter) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// I64 appends a fixed-width big-endian int64.
func (w *ByteWriter) I64(v int64) { w.U64(uint64(v)) }

// Byte appends a single byte.
func (w *ByteWriter) Byte(b byte) { w.buf = append(w.buf, b) }

// Blob appends a length-prefixed byte slice.
func (w *ByteWriter) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str appends a length-prefixed string.
func (w *ByteWriter) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Strs appends a count-prefixed list of strings.
func (w *ByteWriter) Strs(ss []string) {
	w.U64(uint64(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// ByteReader decodes encodings produced by ByteWriter.
type ByteReader struct {
	buf []byte
	off int
	err error
}

// NewByteReader wraps an encoded buffer.
func NewByteReader(b []byte) *ByteReader { return &ByteReader{buf: b} }

// Err returns the first decoding error encountered.
func (r *ByteReader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *ByteReader) Remaining() int { return len(r.buf) - r.off }

func (r *ByteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCodec, r.off)
	}
}

// Fail marks the reader as failed at the current offset, for enclosing
// decoders that detect a structurally impossible count or value. All
// subsequent reads return zero values and Err reports the failure.
func (r *ByteReader) Fail() { r.fail() }

// Bool writes a boolean as a single byte (1 or 0).
func (w *ByteWriter) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Bool reads a byte written by (*ByteWriter).Bool. Any value other than
// 0 or 1 is a malformed encoding and fails the reader — a flipped byte
// must surface as an error, not silently collapse to false.
func (r *ByteReader) Bool() bool {
	switch r.Byte() {
	case 1:
		return true
	case 0:
		return false
	default:
		r.fail()
		return false
	}
}

// FinishDecode completes a one-message decode: it returns any pending
// reader error, and fails on trailing bytes (a frame or record carries
// exactly one message), wrapping either with the message name.
func FinishDecode(r *ByteReader, what string) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("decoding %s: %w: %d trailing bytes", what, ErrCodec, n)
	}
	return nil
}

// U64 reads a fixed-width big-endian uint64.
func (r *ByteReader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a fixed-width big-endian int64.
func (r *ByteReader) I64() int64 { return int64(r.U64()) }

// Byte reads a single byte.
func (r *ByteReader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Blob reads a length-prefixed byte slice, copied out of the buffer; an
// empty one decodes to nil.
func (r *ByteReader) Blob() []byte {
	n := r.skip()
	return append([]byte(nil), r.buf[r.off-n:r.off]...)
}

// Str reads a length-prefixed string.
func (r *ByteReader) Str() string {
	n := r.skip()
	return string(r.buf[r.off-n : r.off])
}

// Strs reads a count-prefixed list of strings. A zero count decodes to
// nil so that round trips preserve nil slices. The count is bounded by
// the smallest possible encoding of one string (its 8-byte length
// prefix), so a hostile count cannot reserve a slice whose element count
// exceeds what the input could possibly back.
func (r *ByteReader) Strs() []string {
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/8 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Str())
	}
	return out
}

// Marshal encodes the transaction, including its signature.
func (t *Transaction) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	t.MarshalTo(w)
	return w.CloneBytes()
}

// MarshalTo appends the transaction's encoding to an existing writer,
// letting enclosing encodings (consensus payloads, endorsed transactions)
// embed it without an intermediate allocation.
func (t *Transaction) MarshalTo(w *ByteWriter) {
	w.Str(string(t.ID))
	w.Str(string(t.App))
	w.Str(string(t.Client))
	w.U64(t.ClientTS)
	w.Str(t.Op.Method)
	w.Strs(t.Op.Params)
	w.Strs(t.Op.Reads)
	w.Strs(t.Op.Writes)
	w.I64(t.SubmitUnixNano)
	w.Blob(t.Sig)
}

// UnmarshalTransaction decodes a transaction encoded by Marshal.
func UnmarshalTransaction(b []byte) (*Transaction, error) {
	r := NewByteReader(b)
	t := decodeTransaction(r)
	if err := FinishDecode(r, "transaction"); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeTransaction consumes one transaction encoding from the reader;
// enclosing decoders (blocks, endorsed transactions) embed it. A cleanly
// decoded transaction is sealed before any caller can share it.
//
// A first pass checks every bound and sizes the strings without
// allocating. The second cuts every string from one arena holding the
// string bytes alone and every list from one shared []string, so a
// decode costs the Transaction, the arena, the list backing and the
// signature. The digest is the SHA-256 of the wire bytes from the end of
// ID to the end of SubmitUnixNano, which are byte for byte the framing
// contentDigest encodes (TestDigestGolden pins it).
func decodeTransaction(r *ByteReader) *Transaction {
	scan := *r
	strBytes := scan.skip() // ID
	from := scan.off
	strBytes += scan.skip() + scan.skip() // App, Client
	scan.U64()                            // ClientTS
	strBytes += scan.skip()               // Method
	var counts [3]int                     // Params, Reads, Writes
	for i := range counts {
		n := scan.U64()
		if scan.err != nil || n > uint64(scan.Remaining())/8 {
			scan.fail()
			break
		}
		counts[i] = int(n)
		for j := 0; j < counts[i]; j++ {
			strBytes += scan.skip()
		}
	}
	scan.I64() // SubmitUnixNano
	to := scan.off
	scan.skip() // Sig
	if scan.err != nil {
		r.err, r.off = scan.err, scan.off
		return &Transaction{}
	}

	var arena strings.Builder
	arena.Grow(strBytes)
	str := func() string {
		n := r.skip()
		arena.Write(r.buf[r.off-n : r.off])
		all := arena.String()
		return all[len(all)-n:]
	}
	t := &Transaction{ID: TxID(str()), App: AppID(str()), Client: NodeID(str())}
	t.ClientTS = r.U64()
	t.Op.Method = str()
	var lists []string
	if total := counts[0] + counts[1] + counts[2]; total > 0 {
		lists = make([]string, 0, total)
	}
	for i, list := range []*[]string{&t.Op.Params, &t.Op.Reads, &t.Op.Writes} {
		r.U64() // the count, taken from the first pass
		if counts[i] == 0 {
			continue // a zero count decodes to nil, as Strs does
		}
		start := len(lists)
		for j := 0; j < counts[i]; j++ {
			lists = append(lists, str())
		}
		*list = lists[start:len(lists):len(lists)] // an append must not reach the next list
	}
	t.SubmitUnixNano = r.I64()
	t.Sig = r.Blob() // nil when empty
	t.digest = sha256.Sum256(r.buf[from:to])
	t.sealed = t
	return t
}

// skip consumes one length-prefixed string or blob without copying it and
// returns its length (0 once the reader has failed). The length is
// checked against the remaining input before the int conversion, so a
// hostile 2^63-scale prefix fails cleanly instead of overflowing.
func (r *ByteReader) skip() int {
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining()) {
		r.fail()
		return 0
	}
	r.off += int(n)
	return int(n)
}

// ApproxSize estimates the transaction's wire size for bandwidth modeling.
func (t *Transaction) ApproxSize() int {
	size := len(t.ID) + len(t.App) + len(t.Client) + len(t.Op.Method) + len(t.Sig) + 64
	for _, p := range t.Op.Params {
		size += len(p) + 8
	}
	for _, k := range t.Op.Reads {
		size += len(k) + 8
	}
	for _, k := range t.Op.Writes {
		size += len(k) + 8
	}
	return size
}

// ApproxSize estimates the block's wire size.
func (b *Block) ApproxSize() int {
	size := 128
	for _, tx := range b.Txns {
		size += tx.ApproxSize()
	}
	return size
}

// ApproxSize estimates the message's wire size: the block plus roughly
// eight bytes per graph edge.
func (m *NewBlockMsg) ApproxSize() int {
	size := m.Block.ApproxSize() + len(m.Sig) + 64
	if m.Graph != nil {
		size += 8 * m.Graph.EdgeCount()
	}
	return size
}

// ApproxSize estimates the message's wire size from its results.
func (m *CommitMsg) ApproxSize() int {
	size := len(m.Sig) + len(m.Executor) + 32
	for i := range m.Results {
		size += resultApproxSize(&m.Results[i])
	}
	return size
}

func resultApproxSize(r *TxResult) int {
	size := len(r.TxID) + len(r.AbortReason) + 24
	for _, kv := range r.Writes {
		size += len(kv.Key) + len(kv.Val) + 16
	}
	return size
}
