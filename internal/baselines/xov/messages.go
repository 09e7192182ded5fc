// Package xov implements the execute-order-validate baseline (the
// paper's "XOV" paradigm, modeled on Hyperledger Fabric): clients first
// have the agents (endorsers) of an application *simulate* a transaction
// against current state, collect an endorsement policy's worth of signed
// read-version/write sets, and then submit the endorsed transaction,
// wrapped in a signed envelope, to the same graph-less ordering service
// OX uses; every peer finally takes the ordered blocks of envelopes
// through the shared orderer-quorum intake, validates them sequentially
// with an MVCC read-set check, and aborts those that conflict with an
// earlier committed write — the abort behaviour that collapses XOV
// throughput under contention (Figures 6(b)-(d)).
package xov

import (
	"crypto/sha256"
	"errors"

	"parblockchain/internal/types"
)

// AbortMVCCConflict is the abort reason of transactions whose read set
// became stale between endorsement and validation. Clients treat it as
// retryable; contract-level failures are not.
const AbortMVCCConflict = "mvcc read conflict"

// KeyVer is one observed read: a key and the committed version the
// endorser saw (0 means the key did not exist).
type KeyVer struct {
	// Key names the record read.
	Key types.Key
	// Ver is the version observed at endorsement.
	Ver uint64
}

// EndorseRequestMsg asks an endorser to simulate a transaction.
type EndorseRequestMsg struct {
	// Tx is the client's transaction.
	Tx *types.Transaction
}

// EndorsementMsg is an endorser's signed simulation result.
type EndorsementMsg struct {
	// TxID identifies the simulated transaction.
	TxID types.TxID
	// ReadVers records every read with its observed version.
	ReadVers []KeyVer
	// Writes is the simulated write set (empty when Aborted).
	Writes []types.KV
	// Aborted marks contract-level failure during simulation.
	Aborted bool
	// AbortReason explains the failure.
	AbortReason string
	// Endorser is the signing agent.
	Endorser types.NodeID
	// Sig signs SignedDigest().
	Sig []byte
}

// ContentDigest hashes the endorsement outcome, excluding the endorser
// identity: endorsements from distinct agents "match" when their content
// digests are equal, which is how the client checks the endorsement
// policy.
func (m *EndorsementMsg) ContentDigest() types.Hash {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	writeEndorsementContent(w, string(m.TxID), m.ReadVers, m.Writes, m.Aborted, m.AbortReason)
	return hashOf(w.Bytes())
}

// SignedDigest hashes the content plus the endorser identity; it is what
// the endorser signs.
func (m *EndorsementMsg) SignedDigest() types.Hash {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	writeEndorsementContent(w, string(m.TxID), m.ReadVers, m.Writes, m.Aborted, m.AbortReason)
	w.Str(string(m.Endorser))
	return hashOf(w.Bytes())
}

func writeEndorsementContent(w *types.ByteWriter, txID string, readVers []KeyVer,
	writes []types.KV, aborted bool, reason string) {
	w.Str(txID)
	w.U64(uint64(len(readVers)))
	for _, rv := range readVers {
		w.Str(rv.Key)
		w.U64(rv.Ver)
	}
	w.U64(uint64(len(writes)))
	for _, kv := range writes {
		w.Str(kv.Key)
		w.Blob(kv.Val)
	}
	if aborted {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Str(reason)
}

func hashOf(b []byte) types.Hash { return sha256.Sum256(b) }

// EndorsedTx is the client-assembled, policy-satisfying transaction that
// enters the ordering service, wrapped in an envelope (Envelope).
type EndorsedTx struct {
	// Tx is the original transaction.
	Tx *types.Transaction
	// ReadVers and Writes are the agreed simulation outcome.
	ReadVers []KeyVer
	Writes   []types.KV
	// SimAborted marks a deterministic contract failure observed at
	// endorsement; it commits as aborted without MVCC checks.
	SimAborted  bool
	AbortReason string
	// Endorsers and Sigs carry the endorsement policy evidence, aligned
	// index-to-index.
	Endorsers []types.NodeID
	Sigs      [][]byte
}

// Marshal encodes the endorsed transaction for consensus ordering.
func (e *EndorsedTx) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	// Embed the transaction as a length-prefixed blob without the
	// intermediate allocation of Tx.Marshal: write a placeholder length,
	// encode in place, backfill.
	lenOff := w.Len()
	w.U64(0)
	txStart := w.Len()
	e.Tx.MarshalTo(w)
	w.PatchU64(lenOff, uint64(w.Len()-txStart))
	w.U64(uint64(len(e.ReadVers)))
	for _, rv := range e.ReadVers {
		w.Str(rv.Key)
		w.U64(rv.Ver)
	}
	w.U64(uint64(len(e.Writes)))
	for _, kv := range e.Writes {
		w.Str(kv.Key)
		w.Blob(kv.Val)
	}
	w.Bool(e.SimAborted)
	w.Str(e.AbortReason)
	w.U64(uint64(len(e.Endorsers)))
	for i, id := range e.Endorsers {
		w.Str(string(id))
		w.Blob(e.Sigs[i])
	}
	return w.CloneBytes()
}

// UnmarshalEndorsedTx decodes an EndorsedTx. The encoding is canonical:
// a flag byte other than 0 or 1, or bytes after the last field, are
// refused, so an accepted input re-encodes to exactly itself.
func UnmarshalEndorsedTx(b []byte) (*EndorsedTx, error) {
	r := types.NewByteReader(b)
	txBytes := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	tx, err := types.UnmarshalTransaction(txBytes)
	if err != nil {
		return nil, err
	}
	e := &EndorsedTx{Tx: tx}
	nReads := r.U64()
	for i := uint64(0); i < nReads && r.Err() == nil; i++ {
		e.ReadVers = append(e.ReadVers, KeyVer{Key: r.Str(), Ver: r.U64()})
	}
	nWrites := r.U64()
	for i := uint64(0); i < nWrites && r.Err() == nil; i++ {
		e.Writes = append(e.Writes, types.KV{Key: r.Str(), Val: r.Blob()})
	}
	e.SimAborted = r.Bool()
	e.AbortReason = r.Str()
	nSigs := r.U64()
	for i := uint64(0); i < nSigs && r.Err() == nil; i++ {
		e.Endorsers = append(e.Endorsers, types.NodeID(r.Str()))
		e.Sigs = append(e.Sigs, r.Blob())
	}
	if err := types.FinishDecode(r, "endorsed transaction"); err != nil {
		return nil, err
	}
	return e, nil
}

// EnvelopeMethod is the operation method of an envelope: a transaction
// whose one parameter is a marshaled EndorsedTx. The ordering service
// orders envelopes as opaque signed transactions, as Fabric's orderers
// order opaque envelopes; only peers open them.
const EnvelopeMethod = "xov.endorsed"

// Envelope errors: an ordered transaction that fails OpenEnvelope commits
// as aborted with the error's text, the same on every peer.
var (
	// ErrNotEnvelope marks an ordered transaction that does not carry a
	// well-formed EndorsedTx.
	ErrNotEnvelope = errors.New("xov: not an endorsed-transaction envelope")
	// ErrForeignEnvelope marks an envelope whose inner transaction names
	// another client or application than the envelope itself: its
	// signer may not submit on that transaction's behalf.
	ErrForeignEnvelope = errors.New("xov: envelope and endorsed transaction disagree on client or application")
)

// Envelope wraps the endorsed transaction for ordering, on behalf of the
// inner transaction's client and application. The caller signs it.
func (e *EndorsedTx) Envelope() *types.Transaction {
	return &types.Transaction{
		App:      e.Tx.App,
		Client:   e.Tx.Client,
		ClientTS: e.Tx.ClientTS,
		Op:       types.Operation{Method: EnvelopeMethod, Params: []string{string(e.Marshal())}},
	}
}

// OpenEnvelope decodes the endorsed transaction an ordered envelope
// carries. The envelope's signature, checked by the orderers, vouches for
// the inner transaction only when both name the same client and app.
func OpenEnvelope(env *types.Transaction) (*EndorsedTx, error) {
	if env.Op.Method != EnvelopeMethod || len(env.Op.Params) != 1 {
		return nil, ErrNotEnvelope
	}
	etx, err := UnmarshalEndorsedTx([]byte(env.Op.Params[0]))
	if err != nil {
		return nil, ErrNotEnvelope
	}
	if etx.Tx.Client != env.Client || etx.Tx.App != env.App {
		return nil, ErrForeignEnvelope
	}
	return etx, nil
}
