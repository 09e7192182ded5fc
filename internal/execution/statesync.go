// This file implements peer-served state sync: the stall watchdog, the
// requester state machine (one peer at a time, response deadlines,
// jittered exponential backoff), the server side (answering from the
// durability manager's WAL and snapshots), and the verification and
// adoption paths that install peer-served history without ever trusting
// the peer.
//
// All requester and server entry points run on the actor loop (the
// server offloads file reads to a short-lived goroutine), so the sync
// state needs no locking and adoption can tear down the pipeline window
// without racing admission.
//
// Trust model: a response is a hint, never an authority. Records are
// re-verified against the local chain tip and the orderer quorum's own
// endorsement digest (recomputed from content, so a tampered block,
// graph, result, or delta cannot match), and the post-apply state hash
// must land exactly where the record claims. Snapshots are re-verified
// by persist.DecodeSnapshot (CRC, manifest, per-shard content, state
// hash). With VerifySigs on, endorsement signatures bind the evidence to
// the orderers' keys; with crypto off the checks are structural — they
// detect any tampering with real history, while wholesale fabrication is
// excluded only by the fault model (same stance as every other
// crypto-off path in this reproduction).

package execution

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// syncState is the requester's state machine, owned by the actor loop.
type syncState struct {
	active   bool
	nonce    uint64         // ties responses to the outstanding request
	peers    []types.NodeID // rotation order (Executors minus self)
	peer     int            // index of the peer currently being asked
	waiting  bool           // a request is outstanding
	deadline time.Time      // response deadline for the outstanding request
	attempt  int            // consecutive failed attempts, drives backoff
	nextTry  time.Time      // backoff gate for the next attempt
	snap     *snapAssembly  // non-nil while reassembling a snapshot
}

// snapAssembly accumulates one peer's snapshot chunks. The transfer is
// pinned to the serving peer: chunks of one file must all come from the
// same snapshot, and a mid-transfer failure restarts the whole assembly
// elsewhere.
type snapAssembly struct {
	peer   types.NodeID
	height uint64
	chunks uint64
	next   uint64 // next chunk index expected
	buf    []byte
}

// probeRearmStalls is how many stall periods an answered silence probe
// holds the next one off. A probe answered "nothing missing" must not be
// the last: a partition that heals after the cluster went quiet leaves
// the node hearing nothing, exactly like the restart the probe exists
// for. Eight periods keeps an idle cluster's probe chatter at one small
// request per executor every eight stall timeouts.
const probeRearmStalls = 8

// handleTick is the watchdog: fired periodically by the ticker goroutine
// (Config.StallTimeout > 0), it detects a stalled pipeline and drives
// the sync state machine's deadlines and backoff.
func (e *Executor) handleTick() {
	if e.halted {
		return
	}
	now := time.Now()
	if e.sync.active {
		if e.sync.waiting {
			if now.After(e.sync.deadline) {
				e.syncRetry("response from %s timed out", e.currentSyncPeer())
			}
			return
		}
		if e.maxSeen <= e.cfg.Ledger.Height() {
			e.endSync("caught up at height %d", e.cfg.Ledger.Height())
			return
		}
		if now.Sub(e.lastProgress) < e.cfg.StallTimeout {
			// The normal pipeline resumed on its own (sync adoption does
			// not touch lastProgress, so this is genuine admission or
			// finalization progress).
			e.endSync("pipeline resumed at height %d", e.cfg.Ledger.Height())
			return
		}
		if now.After(e.sync.nextTry) {
			e.sendSyncRequest()
		}
		return
	}
	if now.Sub(e.lastProgress) < e.cfg.StallTimeout {
		return
	}
	if e.maxSeen <= e.cfg.Ledger.Height() {
		// Nothing is known to be missing — except that a node restarted
		// (or partitioned) into silence hears nothing at all, so a node
		// with history probes a peer for the cluster's durable height
		// (responses carry it; a caught-up probe ends at the next tick).
		// The probe repeats each stall period until one is answered, and
		// an answered one is re-armed probeRearmStalls periods later.
		if e.cfg.Ledger.Height() == 0 || now.Before(e.nextProbe) {
			return
		}
	}
	e.startSync()
}

// startSync arms the requester: peers have announced blocks this node
// never admitted and the pipeline has been still for the stall deadline,
// so the missing heights must come from a peer's durable history.
func (e *Executor) startSync() {
	peers := make([]types.NodeID, 0, len(e.cfg.Executors))
	for _, id := range e.cfg.Executors {
		if id != e.cfg.ID {
			peers = append(peers, id)
		}
	}
	if len(peers) == 0 {
		return
	}
	e.sync = syncState{
		active: true,
		nonce:  e.sync.nonce, // nonces stay monotonic across sync sessions
		peers:  peers,
		peer:   rand.Intn(len(peers)), // spread restarted nodes across peers
	}
	e.mirror.syncing.Store(true)
	e.cfg.Logf("executor %s: stalled at height %d with peers at %d; starting state sync",
		e.cfg.ID, e.cfg.Ledger.Height(), e.maxSeen)
	e.sendSyncRequest()
}

// currentSyncPeer returns the peer the outstanding (or next) request is
// addressed to: the pinned snapshot server mid-assembly, the rotation
// cursor otherwise.
func (e *Executor) currentSyncPeer() types.NodeID {
	if e.sync.snap != nil {
		return e.sync.snap.peer
	}
	return e.sync.peers[e.sync.peer]
}

// sendSyncRequest sends the next request of the current sync session:
// the next snapshot chunk of a pinned transfer, or the records from the
// local tip.
func (e *Executor) sendSyncRequest() {
	e.sync.nonce++
	e.sync.waiting = true
	e.sync.deadline = time.Now().Add(e.cfg.StallTimeout)
	req := &types.StateSyncRequestMsg{
		MaxBytes:  uint64(maxSyncRespBytes),
		Requester: e.cfg.ID,
		Nonce:     e.sync.nonce,
	}
	if snap := e.sync.snap; snap != nil {
		req.Kind = types.SyncKindSnapshot
		req.From = snap.height
		req.Chunk = snap.next
	} else {
		req.Kind = types.SyncKindRecords
		req.From = e.cfg.Ledger.Height()
	}
	digest := req.Digest()
	req.Sig = e.cfg.Signer.Sign(digest[:])
	e.stats.syncReqs.Add(1)
	if err := e.cfg.Endpoint.Send(e.currentSyncPeer(), req); err != nil {
		e.cfg.Logf("executor %s: sync request to %s: %v", e.cfg.ID, e.currentSyncPeer(), err)
	}
}

// syncRetry abandons the current attempt (timeout, empty-handed peer, or
// a response that failed verification), rotates to the next peer, and
// backs off with jittered exponential delay so a cluster-wide outage
// does not turn every lagging node into a request storm.
func (e *Executor) syncRetry(format string, args ...any) {
	e.cfg.Logf("executor %s: state sync: %s; retrying on another peer",
		e.cfg.ID, fmt.Sprintf(format, args...))
	e.sync.waiting = false
	e.sync.snap = nil // a failed snapshot transfer restarts from scratch
	e.sync.peer = (e.sync.peer + 1) % len(e.sync.peers)
	if e.sync.attempt < 31 {
		e.sync.attempt++
	}
	shift := e.sync.attempt - 1
	if shift > 4 {
		shift = 4 // cap the backoff at 8x the base
	}
	base := e.cfg.StallTimeout / 2
	backoff := base << shift
	// ±50% jitter desynchronizes requesters that stalled together.
	backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff)+1))
	e.sync.nextTry = time.Now().Add(backoff)
}

// endSync disarms the requester; the watchdog re-arms it if the stall
// recurs.
func (e *Executor) endSync(format string, args ...any) {
	e.cfg.Logf("executor %s: state sync done: %s", e.cfg.ID, fmt.Sprintf(format, args...))
	nonce := e.sync.nonce
	e.sync = syncState{nonce: nonce}
	e.mirror.syncing.Store(false)
}

// handleSyncRequest serves one peer's catch-up request from the durable
// artifacts. The file reads run on a short-lived goroutine so a large
// transfer never stalls this node's own pipeline; the persist manager's
// range readers are safe for concurrent use with the append path.
func (e *Executor) handleSyncRequest(from types.NodeID, m *types.StateSyncRequestMsg) {
	if m.Requester != from {
		return
	}
	if e.cfg.Persist == nil {
		return // nothing durable to serve
	}
	if e.cfg.VerifySigs && !e.verified("sync request", from, m.Digest(), m.Sig) {
		return
	}
	// The actor loop is still running (it dispatched this handler), so
	// the waitgroup count is positive and Add cannot race Stop's Wait.
	e.wg.Add(1)
	go e.serveSync(from, m)
}

// serveSync builds and sends the response for one request.
func (e *Executor) serveSync(from types.NodeID, m *types.StateSyncRequestMsg) {
	defer e.wg.Done()
	budget := int(m.MaxBytes)
	if budget <= 0 || budget > maxSyncRespBytes {
		budget = maxSyncRespBytes
	}
	resp := &types.StateSyncResponseMsg{
		Nonce:     m.Nonce,
		Kind:      types.SyncKindNothing,
		Responder: e.cfg.ID,
	}
	_, resp.Height = e.cfg.Persist.SyncStatus()
	switch m.Kind {
	case types.SyncKindRecords:
		recs, err := e.cfg.Persist.ServeBlocks(m.From, budget)
		switch {
		case err == nil && len(recs) > 0:
			resp.Kind = types.SyncKindRecords
			resp.From = m.From
			resp.Records = recs
		case errors.Is(err, persist.ErrSyncBelowFloor):
			// The WAL was truncated above the requested height: offer the
			// newest snapshot instead (chunk 0; the requester pins this
			// peer for the rest of the file).
			e.fillSnapshotChunk(resp, 0, 0)
		case err != nil:
			e.cfg.Logf("executor %s: serving sync records from %d: %v", e.cfg.ID, m.From, err)
		}
	case types.SyncKindSnapshot:
		e.fillSnapshotChunk(resp, m.From, m.Chunk)
	default:
		return // unreachable: the codec rejects unknown request kinds
	}
	digest := resp.Digest()
	resp.Sig = e.cfg.Signer.Sign(digest[:])
	e.stats.syncServed.Add(1)
	if err := e.cfg.Endpoint.Send(from, resp); err != nil {
		e.cfg.Logf("executor %s: sync response to %s: %v", e.cfg.ID, from, err)
	}
}

// fillSnapshotChunk populates resp with one snapshot chunk. height 0
// means "the newest snapshot" (the records path discovering that the
// requester is below the WAL floor); the response stays SyncKindNothing
// when no snapshot exists or the read fails.
func (e *Executor) fillSnapshotChunk(resp *types.StateSyncResponseMsg, height, chunk uint64) {
	if height == 0 {
		newest, ok := e.cfg.Persist.NewestSnapshot()
		if !ok {
			return
		}
		height = newest
	}
	raw, chunks, err := e.cfg.Persist.ServeSnapshotChunk(height, chunk, maxSyncChunkBytes)
	if err != nil {
		e.cfg.Logf("executor %s: serving snapshot %d chunk %d: %v", e.cfg.ID, height, chunk, err)
		return
	}
	resp.Kind = types.SyncKindSnapshot
	resp.SnapHeight = height
	resp.ChunkIdx = chunk
	resp.Chunks = chunks
	resp.Chunk = raw
}

// handleSyncResponse routes one peer's answer through verification and
// adoption. Responses that are stale (wrong nonce), unsolicited, or from
// the wrong peer are dropped: a slow peer's late answer must not satisfy
// a newer attempt addressed elsewhere.
func (e *Executor) handleSyncResponse(from types.NodeID, m *types.StateSyncResponseMsg) {
	if !e.sync.active || !e.sync.waiting || m.Nonce != e.sync.nonce ||
		m.Responder != from || from != e.currentSyncPeer() {
		return
	}
	if e.cfg.VerifySigs && !e.verified("sync response", from, m.Digest(), m.Sig) {
		return // keep waiting: the deadline handles a mute peer
	}
	e.sync.waiting = false
	// Any verified response answers the silence probe. Spending the probe
	// only here (not on send) keeps an unreachable node re-probing every
	// stall period instead of giving up after one lost request.
	e.nextProbe = time.Now().Add(probeRearmStalls * e.cfg.StallTimeout)
	if m.Height > e.maxSeen {
		e.maxSeen = m.Height
	}
	switch m.Kind {
	case types.SyncKindNothing:
		e.syncRetry("peer %s has nothing above height %d", from, e.cfg.Ledger.Height())
	case types.SyncKindRecords:
		e.adoptRecords(from, m)
	case types.SyncKindSnapshot:
		e.acceptSnapshotChunk(from, m)
	}
}

// adoptRecords verifies and adopts a batch of finalization records. A
// verified prefix is kept even when a later record fails: verified
// progress is progress, and the failure rotates the requester to another
// peer for the remainder.
func (e *Executor) adoptRecords(from types.NodeID, m *types.StateSyncResponseMsg) {
	if m.From != e.cfg.Ledger.Height() || len(m.Records) == 0 {
		e.stats.syncRejected.Add(1)
		e.syncRetry("peer %s answered for height %d, wanted %d", from, m.From, e.cfg.Ledger.Height())
		return
	}
	adopted := 0
	var rejectErr error
	for _, raw := range m.Records {
		rec, err := persist.UnmarshalBlockRecord(raw)
		if err == nil {
			err = e.verifySyncRecord(rec)
		}
		if err == nil {
			err = e.adoptRecord(rec)
		}
		if err != nil {
			rejectErr = err
			break
		}
		adopted++
	}
	if adopted > 0 {
		e.stats.syncRecs.Add(uint64(adopted))
		if e.cfg.Persist != nil {
			if err := e.cfg.Persist.Sync(); err != nil {
				e.haltf("WAL sync failed during state sync: %v", err)
				return
			}
			e.cfg.Persist.MaybeSnapshot(e.cfg.Ledger.Height(), e.cfg.Ledger.LastHash(), e.cfg.Store)
		}
		e.rebaseAfterSync()
	}
	if rejectErr != nil {
		e.stats.syncRejected.Add(1)
		e.syncRetry("record from %s rejected: %v", from, rejectErr)
		return
	}
	e.sync.attempt = 0
	switch {
	case e.cfg.Ledger.Height() >= e.maxSeen:
		e.endSync("caught up at height %d via %s", e.cfg.Ledger.Height(), from)
	case e.cfg.Ledger.Height() >= m.Height:
		// This peer is exhausted but someone announced more.
		e.syncRetry("peer %s exhausted at height %d", from, m.Height)
	default:
		e.sendSyncRequest() // same peer, next batch
	}
}

// verifySyncRecord checks everything about a peer-served record that can
// be checked without touching the store: chain linkage, the header's
// transaction commitment, result alignment, delta consistency with the
// results, and the quorum evidence (the endorsed digest recomputed from
// content, the endorsement count, and — with crypto on — the orderers'
// signatures over it). The state hash is checked at apply time.
func (e *Executor) verifySyncRecord(rec *persist.BlockRecord) error {
	if rec.Block == nil {
		return errors.New("record without a block")
	}
	num := rec.Block.Header.Number
	if num != e.cfg.Ledger.Height() {
		return fmt.Errorf("block %d does not follow local height %d", num, e.cfg.Ledger.Height())
	}
	if rec.Block.Header.PrevHash != e.cfg.Ledger.LastHash() {
		return fmt.Errorf("block %d does not extend the local chain", num)
	}
	if !rec.Block.VerifyTxRoot() {
		return fmt.Errorf("block %d header does not commit to its transactions", num)
	}
	if len(rec.Results) != len(rec.Block.Txns) {
		return fmt.Errorf("block %d carries %d results for %d transactions",
			num, len(rec.Results), len(rec.Block.Txns))
	}
	for i := range rec.Results {
		if rec.Results[i].Index != i || rec.Results[i].TxID != rec.Block.Txns[i].ID {
			return fmt.Errorf("block %d result %d misaligned", num, i)
		}
	}
	if err := verifyDelta(rec); err != nil {
		return fmt.Errorf("block %d: %w", num, err)
	}
	want := e.recomputeEvidence(rec)
	if want != rec.EvidenceDigest {
		return fmt.Errorf("block %d evidence digest does not match its content", num)
	}
	seen := make(map[types.NodeID]bool, len(rec.Endorse))
	for _, end := range rec.Endorse {
		if end.Node == "" || seen[end.Node] {
			return fmt.Errorf("block %d evidence lists endorser %q twice", num, end.Node)
		}
		seen[end.Node] = true
		if e.cfg.VerifySigs {
			if err := e.cfg.Verifier.Verify(string(end.Node), want[:], end.Sig); err != nil {
				return fmt.Errorf("block %d endorsement by %s: %w", num, end.Node, err)
			}
		}
	}
	if len(seen) < e.cfg.OrderQuorum {
		return fmt.Errorf("block %d carries %d endorsements, quorum is %d",
			num, len(seen), e.cfg.OrderQuorum)
	}
	return nil
}

// recomputeEvidence derives, from the record's content alone, the digest
// the orderer quorum endorsed: the NEWBLOCK digest (block + the
// deterministically rebuilt dependency graph). Records written by nodes
// of the retired segment-streaming release carry Streamed evidence: a
// quorum-signed seal digest (header + seal parameters + apps), which
// still verifies here so their WAL history stays servable. A tampered
// transaction, edge, or seal parameter changes the digest, so the
// endorsements no longer vouch for the content.
func (e *Executor) recomputeEvidence(rec *persist.BlockRecord) types.Hash {
	if rec.Streamed {
		seal := &types.BlockSealMsg{
			Header:   rec.Block.Header,
			Segments: rec.SealSegments,
			Cum:      rec.SealCum,
			Apps:     rec.Block.Apps(),
		}
		return seal.Digest()
	}
	sets := make([]depgraph.RWSet, len(rec.Block.Txns))
	for i, tx := range rec.Block.Txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
	}
	graph := depgraph.Build(sets)
	return (&types.NewBlockMsg{Block: rec.Block, Graph: graph}).Digest()
}

// verifyDelta checks the record's state delta against its results: the
// delta must be exactly the last-writer-wins merge of the non-aborted
// results' writes. Without this check a tampered delta could diverge the
// store while results, evidence, and even the claimed state hash (also
// tampered) stay self-consistent with the fake.
func verifyDelta(rec *persist.BlockRecord) error {
	want := make(map[string][]byte)
	for i := range rec.Results {
		if rec.Results[i].Aborted {
			continue
		}
		for _, kv := range rec.Results[i].Writes {
			want[kv.Key] = kv.Val
		}
	}
	if len(rec.Delta) != len(want) {
		return fmt.Errorf("delta carries %d keys, results produce %d", len(rec.Delta), len(want))
	}
	for _, kv := range rec.Delta {
		v, ok := want[kv.Key]
		if !ok {
			return fmt.Errorf("delta writes undeclared key %q", kv.Key)
		}
		// nil (deletion) and empty are distinct, exactly as in the codec.
		if (v == nil) != (kv.Val == nil) || !bytes.Equal(v, kv.Val) {
			return fmt.Errorf("delta value for %q diverges from the results", kv.Key)
		}
		delete(want, kv.Key)
	}
	return nil
}

// adoptRecord applies one verified record: delta to the store (with the
// post-apply hash checked against the record, undoing the apply on
// mismatch so a lying record cannot corrupt the store), entry to the
// ledger, record to the WAL. The ledger append re-validates numbering
// and linkage as a final belt-and-suspenders check.
func (e *Executor) adoptRecord(rec *persist.BlockRecord) error {
	undo := make([]types.KV, len(rec.Delta))
	for i, kv := range rec.Delta {
		if v, ok := e.cfg.Store.Get(kv.Key); ok {
			undo[i] = types.KV{Key: kv.Key, Val: v}
		} else {
			undo[i] = types.KV{Key: kv.Key} // absent: undo deletes
		}
	}
	e.cfg.Store.Apply(rec.Delta)
	if got := e.cfg.Store.Hash(); got != rec.StateHash {
		e.cfg.Store.Apply(undo)
		return fmt.Errorf("block %d post-apply state hash %x does not match the record's %x",
			rec.Block.Header.Number, got[:4], rec.StateHash[:4])
	}
	if err := e.cfg.Ledger.Append(ledger.Entry{Block: rec.Block, Results: rec.Results}); err != nil {
		e.cfg.Store.Apply(undo)
		return err
	}
	if e.cfg.Persist != nil {
		if err := e.cfg.Persist.LogBlock(rec); err != nil {
			e.haltf("WAL append failed for synced block %d: %v", rec.Block.Header.Number, err)
			return err
		}
	}
	if e.cfg.OnCommit != nil {
		e.cfg.OnCommit(rec.Block, rec.Results)
	}
	return nil
}

// acceptSnapshotChunk accumulates one chunk of a pinned snapshot
// transfer and, on the last chunk, verifies and adopts the whole image.
func (e *Executor) acceptSnapshotChunk(from types.NodeID, m *types.StateSyncResponseMsg) {
	if m.SnapHeight <= e.cfg.Ledger.Height() || m.Chunks == 0 || len(m.Chunk) == 0 {
		e.stats.syncRejected.Add(1)
		e.syncRetry("useless snapshot offer from %s (height %d, %d chunks)",
			from, m.SnapHeight, m.Chunks)
		return
	}
	snap := e.sync.snap
	if snap == nil {
		if m.ChunkIdx != 0 {
			e.stats.syncRejected.Add(1)
			e.syncRetry("peer %s opened a snapshot transfer at chunk %d", from, m.ChunkIdx)
			return
		}
		snap = &snapAssembly{peer: from, height: m.SnapHeight, chunks: m.Chunks}
		e.sync.snap = snap
	} else if m.SnapHeight != snap.height || m.ChunkIdx != snap.next || m.Chunks != snap.chunks {
		e.stats.syncRejected.Add(1)
		e.syncRetry("peer %s broke the snapshot transfer (chunk %d of %d at height %d)",
			from, m.ChunkIdx, m.Chunks, m.SnapHeight)
		return
	}
	if len(snap.buf)+len(m.Chunk) > maxSyncSnapshotBytes {
		e.stats.syncRejected.Add(1)
		e.syncRetry("snapshot from %s exceeds the %d-byte budget", from, maxSyncSnapshotBytes)
		return
	}
	snap.buf = append(snap.buf, m.Chunk...)
	snap.next++
	if snap.next < snap.chunks {
		e.sync.attempt = 0
		e.sendSyncRequest() // next chunk, pinned peer
		return
	}
	e.adoptSnapshot(from, snap)
}

// adoptSnapshot verifies a fully reassembled snapshot image and installs
// it wholesale: store reset to the snapshot's state, ledger reanchored
// at its height, and (with durability on) the image adopted as this
// node's own recovery point with the WAL restarted above it. Sync then
// continues with records from the new height.
func (e *Executor) adoptSnapshot(from types.NodeID, snap *snapAssembly) {
	e.sync.snap = nil
	man, snapStore, err := persist.DecodeSnapshot(snap.buf)
	if err != nil {
		e.stats.syncRejected.Add(1)
		e.syncRetry("snapshot from %s failed verification: %v", from, err)
		return
	}
	if man.Height != snap.height {
		e.stats.syncRejected.Add(1)
		e.syncRetry("snapshot from %s claims height %d, manifest says %d",
			from, snap.height, man.Height)
		return
	}
	if man.Height <= e.cfg.Ledger.Height() {
		e.stats.syncRejected.Add(1)
		e.syncRetry("snapshot from %s is not ahead of local height %d",
			from, e.cfg.Ledger.Height())
		return
	}
	e.cfg.Store.Reset()
	shards, _ := snapStore.SnapshotShards()
	for _, shard := range shards {
		e.cfg.Store.Apply(shard)
	}
	if got := e.cfg.Store.Hash(); got != man.StateHash {
		// DecodeSnapshot verified the image against this same hash, so a
		// mismatch here is local corruption, not a hostile peer.
		e.haltf("adopted snapshot state hash mismatch: %x != %x", got[:4], man.StateHash[:4])
		return
	}
	if err := e.cfg.Ledger.ResetTo(man.Height, man.LastHash); err != nil {
		e.haltf("reanchoring ledger at snapshot height %d: %v", man.Height, err)
		return
	}
	if e.cfg.Persist != nil {
		if err := e.cfg.Persist.AdoptSnapshot(man.Height, snap.buf); err != nil {
			e.haltf("adopting snapshot at height %d: %v", man.Height, err)
			return
		}
	}
	e.stats.syncSnaps.Add(1)
	e.cfg.Logf("executor %s: adopted snapshot at height %d from %s", e.cfg.ID, man.Height, from)
	e.rebaseAfterSync()
	e.sync.attempt = 0
	if e.cfg.Ledger.Height() >= e.maxSeen {
		e.endSync("caught up at height %d via snapshot from %s", e.cfg.Ledger.Height(), from)
		return
	}
	e.sendSyncRequest() // records above the snapshot, same peer
}

// rebaseAfterSync reconciles the pipeline with a ledger tip that moved
// under it: every in-flight block below the new tip is discarded (its
// content was finalized from quorum-backed records, so the speculative
// local execution is moot), buffered content at or above the tip is
// re-admitted fresh, and the admission cursor restarts at the tip.
// Worker results for discarded blocks land harmlessly: handleExecDone
// looks the block up by number and finds either nothing or a rebuilt,
// not-started state, and drops the result.
func (e *Executor) rebaseAfterSync() {
	tip := e.cfg.Ledger.Height()
	old := e.blocks
	e.blocks = make(map[uint64]*blockState, len(old))
	for num, bs := range old {
		e.releaseCandidates(bs)
		if bs.started {
			e.index.Remove(num)
		}
		if num >= tip && bs.contentDone {
			// Installed content survives the rebase; execution restarts
			// from scratch under the new chain (admission re-checks the
			// PrevHash linkage against the synced tip).
			nb := e.getBlockState(num)
			nb.contentDone, nb.block, nb.graph = true, bs.block, bs.graph
			nb.ev, nb.evidence = bs.ev, bs.evidence
		}
	}
	for num, buffered := range e.pendingCommits {
		if num < tip {
			for _, m := range buffered {
				e.creditCommitBytes(m)
			}
			delete(e.pendingCommits, num)
		}
	}
	e.window = nil
	e.admitInit = true
	e.nextAdmit = tip
	e.admitPrev = e.cfg.Ledger.LastHash()
	e.pump()
}
