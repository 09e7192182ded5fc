// Package types defines the core data model shared by every component of
// the ParBlockchain reproduction: transactions with declared read/write
// sets, blocks, and the wire messages exchanged between clients, orderers,
// and executors (REQUEST, NEWBLOCK, COMMIT in the paper's notation).
//
// The definitions follow Sections III and IV of "ParBlockchain: Leveraging
// Transaction Parallelism in Permissioned Blockchain Systems" (ICDCS 2019).
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node (client, orderer, or executor) in the network.
// Every message carries the sender's NodeID and is signed with that node's
// key, mirroring the paper's pairwise-authenticated channel assumption.
type NodeID string

// AppID identifies a distributed application (smart contract) deployed on
// the blockchain. The paper denotes applications A1..An; each application
// has a non-empty set of executor agents Sigma(Ai).
type AppID string

// TxID uniquely identifies a transaction. IDs are derived from the client
// identity and the client-local timestamp, which the paper uses to provide
// exactly-once execution semantics per client.
type TxID string

// Key names a record in the blockchain state (datastore). Keys are plain
// strings so that read/write sets interoperate directly with the pure
// dependency-graph package.
type Key = string

// Hash is a SHA-256 digest. Blocks are chained by Hash and execution
// results are matched across executors by Hash.
type Hash [sha256.Size]byte

// ZeroHash is the hash value used as the previous-block pointer of the
// genesis block.
var ZeroHash Hash

// String returns the hexadecimal form of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is all zero bytes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Operation is the payload of a client request: a method of an
// application's smart contract plus its parameters, together with the
// pre-declared read and write sets the orderers need to build the
// dependency graph (Section III-A assumes read/write sets are pre-declared
// or obtained by static analysis).
type Operation struct {
	// Method names the contract function to invoke (e.g. "transfer").
	Method string
	// Params carries the method arguments in contract-defined order.
	Params []string
	// Reads is the set of record keys the operation will read.
	Reads []Key
	// Writes is the set of record keys the operation will write.
	Writes []Key
}

// UndeclaredWrite returns the first key of writes outside the declared
// write set, and whether there is one. Declared write sets are enforced:
// contract execution aborts a result that writes outside them, and
// executors do not count a COMMIT vote for one.
func (op *Operation) UndeclaredWrite(writes []KV) (Key, bool) {
	for i := range writes {
		if !slices.Contains(op.Writes, writes[i].Key) {
			return writes[i].Key, true
		}
	}
	return "", false
}

// Transaction is a client request flowing through the system. In the
// paper's notation this is <REQUEST, op, A, ts_c, c>_sigma_c together with
// the sequencing metadata the ordering phase attaches.
type Transaction struct {
	// ID uniquely identifies the transaction.
	ID TxID
	// App is the application the operation targets.
	App AppID
	// Client is the submitting client's identity (c).
	Client NodeID
	// ClientTS is the client-local timestamp (ts_c) used to totally order
	// the requests of each client and provide exactly-once semantics.
	ClientTS uint64
	// Op is the requested operation including read/write sets.
	Op Operation
	// SubmitUnixNano records the client's wall-clock submit instant and is
	// used only to measure end-to-end latency.
	SubmitUnixNano int64
	// Sig is the client's signature over Digest().
	Sig []byte

	// digest caches the digest Seal computed; sealed points at the
	// transaction Seal ran on. A struct copy keeps the old pointer, so
	// Digest recognizes it as unsealed. Neither field goes on the wire.
	digest Hash
	sealed *Transaction
}

// Seal computes the transaction's digest once and caches it, so every
// later Digest call — Merkle roots, signature checks, segment digests —
// returns it without re-hashing. Decoding and workload.Finalize seal,
// before the transaction is shared; the cache is never filled lazily, so
// concurrent readers never race on it. A sealed transaction is
// immutable: an edit in place after Seal is invisible to Digest (only
// Block.AuditTxRoot, which re-hashes content, catches one). A struct copy
// is unsealed and hashes its own content.
func (t *Transaction) Seal() Hash {
	t.digest = t.contentDigest()
	t.sealed = t
	return t.digest
}

// Digest returns a deterministic SHA-256 digest of the transaction's
// signed fields. Both the client signature and the transaction ID are
// derived from this digest. A sealed transaction returns the digest
// cached by Seal.
func (t *Transaction) Digest() Hash {
	if t.sealed == t {
		return t.digest
	}
	return t.contentDigest()
}

// contentDigest hashes the signed fields, ignoring any sealed digest.
func (t *Transaction) contentDigest() Hash {
	e := newEncoder()
	e.str(string(t.App))
	e.str(string(t.Client))
	e.u64(t.ClientTS)
	e.str(t.Op.Method)
	e.strs(t.Op.Params)
	e.strs(t.Op.Reads)
	e.strs(t.Op.Writes)
	e.u64(uint64(t.SubmitUnixNano))
	return e.sum()
}

// NormalizeKeys sorts the keys and removes duplicates in place, returning
// the normalized slice. Orderers normalize read/write sets before graph
// construction so that graph generation is deterministic across replicas.
func NormalizeKeys(keys []Key) []Key {
	if len(keys) < 2 {
		return keys
	}
	sort.Strings(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// KV is a single updated record: the unit of execution results carried in
// COMMIT messages and applied to the blockchain state.
type KV struct {
	// Key names the record.
	Key Key
	// Val is the record's new value. A nil Val denotes deletion.
	Val []byte
}

// TxResult is the outcome of executing one transaction: either a set of
// updated records or an abort marker (the paper's (x, "abort") pair).
type TxResult struct {
	// TxID identifies the executed transaction.
	TxID TxID
	// Index is the transaction's position within its block.
	Index int
	// Aborted reports whether the transaction failed validation during
	// execution (e.g. insufficient funds). Aborted transactions commit "as
	// aborted": they occupy their slot in the block but write nothing.
	Aborted bool
	// AbortReason describes why the transaction aborted, for diagnostics.
	AbortReason string
	// Writes is the set of updated records produced by the execution.
	Writes []KV
}

// Digest returns a deterministic digest of the result used to count
// "matching" results from distinct executors (Algorithm 3). The executor
// identity is deliberately excluded: two executors match when they produce
// identical outcomes for the same transaction.
func (r *TxResult) Digest() Hash {
	e := newEncoder()
	e.str(string(r.TxID))
	e.u64(uint64(r.Index))
	if r.Aborted {
		e.u64(1)
	} else {
		e.u64(0)
	}
	e.u64(uint64(len(r.Writes)))
	for _, kv := range r.Writes {
		e.str(kv.Key)
		e.bytes(kv.Val)
	}
	return e.sum()
}

// encoder builds deterministic, length-prefixed byte encodings for
// hashing. It is intentionally minimal: encoding/gob is not deterministic
// across streams and encoding/json is needlessly slow for digests.
//
// Encoders are pooled: a digest is computed several times per transaction
// per node, and a fresh buffer for each would be one of the largest
// allocations on the commit path. sum returns the encoder to the pool, so
// every newEncoder is paired with exactly one sum and the encoder is dead
// after it.
type encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 256)} }}

func newEncoder() *encoder {
	e := encoderPool.Get().(*encoder)
	e.buf = e.buf[:0]
	return e
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) strs(ss []string) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) sum() Hash {
	h := sha256.Sum256(e.buf)
	encoderPool.Put(e)
	return h
}
