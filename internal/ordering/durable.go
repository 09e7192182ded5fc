package ordering

import (
	"fmt"

	"parblockchain/internal/consensus"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// The orderer log makes the ordering side bounce-able: every delivered
// consensus entry and every cut decision is appended to a
// persist.RecordLog (the same segmented log the executor WAL runs on)
// at the delivery boundary, and a
// restarted orderer replays the retained window to rebuild its pending
// transactions, dedupe generations, and next block
// number — resuming cuts at height N+1, never 0.
//
// Two record kinds share the log:
//
//   - entry records carry one raw consensus payload with its delivery
//     sequence number, appended before the payload is processed. They
//     ride the page cache until the next cut syncs them; a durable
//     consensus adapter (Kafka) redelivers anything lost, gated by the
//     replayed sequence high-water mark.
//   - cut records are appended inside cutBlock — after the dedupe
//     rotation, before the NEWBLOCK multicast — and fsynced, so no
//     executor ever admits a block the orderer could forget. A cut
//     record carries the post-cut anchor: block number, new chain tip,
//     delivery high-water mark, and both dedupe generations, each in
//     delivery order.
//
// Segment rolls happen only immediately before a cut-record append, so
// every segment after the first starts with a cut record. Replay of a
// pruned log therefore always begins at such an anchor (or at the
// genesis segment), applies it, and re-processes the entries after it —
// deterministically re-cutting and re-announcing the retained blocks
// with bit-identical content. Executors drop the re-multicasts below
// their height and adopt the rest, which is exactly what heals a crash
// between a cut and its multicast: the block is announced again, never
// double-cut.

// DefaultRetainBlocks is the replay window: segments whose newest block
// is this far behind the chain tip are pruned at the next cut.
const DefaultRetainBlocks = 64

// Orderer-log record kinds.
const (
	recEntry = 0x01
	recCut   = 0x02
)

// minTxIDLen bounds seen-set pre-allocation on decode: one
// length-prefixed ID per element.
const minTxIDLen = 8

// cutRecord is the decoded form of a cut record: the complete
// delivery-state anchor immediately after block Num was cut.
type cutRecord struct {
	Num      uint64     // number of the block just cut
	Hash     types.Hash // its hash — the new chain tip
	LastSeq  uint64     // delivery sequence high-water mark at the cut
	SeenCur  []types.TxID
	SeenPrev []types.TxID
}

// logRec is one recovered record, collected at open and consumed by
// replayLog once the delivery loop starts.
type logRec struct {
	idx     uint64
	cut     bool
	seq     uint64 // entry records
	payload []byte // entry records
	anchor  cutRecord
}

// logAnchor maps a segment-leading cut record to its block, the pruning
// index.
type logAnchor struct {
	idx   uint64 // record (= segment start) index
	block uint64
}

func encodeEntryRecord(seq uint64, payload []byte) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(recEntry)
	w.U64(seq)
	w.Blob(payload)
	return w.CloneBytes()
}

func encodeCutRecord(c *cutRecord) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(recCut)
	w.U64(c.Num)
	w.WriteHash(c.Hash)
	w.U64(c.LastSeq)
	for _, ids := range [][]types.TxID{c.SeenCur, c.SeenPrev} {
		w.U64(uint64(len(ids)))
		for _, id := range ids {
			w.Str(string(id))
		}
	}
	return w.CloneBytes()
}

func decodeLogRecord(idx uint64, body []byte) (logRec, error) {
	r := types.NewByteReader(body)
	switch r.Byte() {
	case recEntry:
		rec := logRec{idx: idx, seq: r.U64(), payload: r.Blob()}
		return rec, types.FinishDecode(r, "orderer log ENTRY")
	case recCut:
		rec := logRec{idx: idx, cut: true}
		rec.anchor.Num = r.U64()
		rec.anchor.Hash = r.ReadHash()
		rec.anchor.LastSeq = r.U64()
		for i := 0; i < 2; i++ {
			n := r.U64()
			if r.Err() == nil && n > uint64(r.Remaining())/minTxIDLen {
				r.Fail()
			}
			var ids []types.TxID
			if n > 0 && r.Err() == nil {
				ids = make([]types.TxID, 0, n)
				for j := uint64(0); j < n && r.Err() == nil; j++ {
					ids = append(ids, types.TxID(r.Str()))
				}
			}
			if i == 0 {
				rec.anchor.SeenCur = ids
			} else {
				rec.anchor.SeenPrev = ids
			}
		}
		return rec, types.FinishDecode(r, "orderer log CUT")
	default:
		return logRec{}, fmt.Errorf("ordering: unknown log record kind in record %d", idx)
	}
}

// openLog opens the orderer's record log, collecting the durable records
// for replayLog and rebuilding the anchor table used for pruning.
func (o *Orderer) openLog() error {
	dlog, err := persist.OpenRecordLog(persist.RecordLogConfig{
		Dir:          o.cfg.Dir,
		Prefix:       "olog",
		SegmentBytes: o.cfg.LogSegmentBytes,
		Logf:         o.cfg.Logf,
	}, func(idx uint64, body []byte) error {
		rec, err := decodeLogRecord(idx, body)
		if err != nil {
			return err
		}
		o.recovered = append(o.recovered, rec)
		return nil
	})
	if err != nil {
		return err
	}
	o.dlog = dlog
	segStarts := make(map[uint64]bool)
	for _, s := range dlog.Segments() {
		segStarts[s] = true
	}
	for _, rec := range o.recovered {
		if rec.cut && segStarts[rec.idx] {
			o.anchors = append(o.anchors, logAnchor{idx: rec.idx, block: rec.anchor.Num})
		}
	}
	return nil
}

// replayLog re-processes the recovered records on the delivery
// goroutine, with multicast live: the retained blocks are re-announced
// bit-identically (executors below that height adopt
// them, the rest drop them by height), and a partially assembled block
// is left pending for live delivery to finish. Runs before the first
// live entry is consumed.
func (o *Orderer) replayLog() {
	if o.dlog == nil {
		return
	}
	o.replaying = true
	for _, rec := range o.recovered {
		if rec.cut {
			o.applyCutAnchor(&rec.anchor)
			continue
		}
		if rec.seq > o.lastSeq {
			o.lastSeq = rec.seq
		}
		o.handleEntry(consensus.Entry{Seq: rec.seq, Payload: rec.payload})
	}
	o.replaying = false
	o.stats.recoveredEntries.Store(uint64(len(o.recovered)))
	if n := len(o.recovered); n > 0 {
		o.cfg.Logf("orderer %s: replayed %d durable log records; resuming at block %d",
			o.cfg.ID, n, o.nextNum)
	}
	o.recovered = nil
}

// applyCutAnchor installs a cut record's post-cut state. When the record
// follows entries the replay just re-processed, the re-cut block must
// match it exactly — a mismatch means the log was produced under a
// different configuration (or nondeterminism crept in), and the durable
// record wins. When the record leads a segment (the pruned-prefix
// anchor), it simply seeds the state.
func (o *Orderer) applyCutAnchor(c *cutRecord) {
	if o.nextNum != c.Num+1 || o.prevHash != c.Hash || len(o.pending) != 0 {
		if o.nextNum != 0 || len(o.pending) != 0 {
			o.cfg.Logf("orderer %s: replay diverged at durable cut %d (replay reached block %d, %d pending); adopting the durable state",
				o.cfg.ID, c.Num, o.nextNum, len(o.pending))
		}
		o.pending = nil
		o.pendingBytes = 0
		if o.graph != nil {
			o.graph = depgraph.NewBuilder()
		}
		o.nextNum = c.Num + 1
		o.prevHash = c.Hash
	}
	o.cutRequested = false
	if c.LastSeq > o.lastSeq {
		o.lastSeq = c.LastSeq
	}
	o.seenCur = newSeenGen(c.SeenCur)
	o.seenPrev = newSeenGen(c.SeenPrev)
	o.stats.durableHeight.Store(o.nextNum)
}

// logEntry appends one delivered consensus payload. Durability is
// deferred to the cut's sync; a crash in between loses only
// what a durable consensus adapter redelivers.
func (o *Orderer) logEntry(seq uint64, payload []byte) {
	if _, err := o.dlog.Append(encodeEntryRecord(seq, payload)); err != nil {
		o.cfg.Logf("orderer %s: orderer log append: %v", o.cfg.ID, err)
	}
}

// logCut appends the cut record for the block just cut and fsyncs the
// log — the durability point of the cut path, ordered before the
// NEWBLOCK multicast. Rolls the segment first when it is full (so
// the new segment starts with this cut record: a replay anchor), then
// prunes segments whose blocks have fallen out of the retention window.
func (o *Orderer) logCut(num uint64, hash types.Hash) {
	if o.dlog.Full() {
		if err := o.dlog.Roll(); err != nil {
			o.cfg.Logf("orderer %s: orderer log roll: %v", o.cfg.ID, err)
		} else {
			o.anchors = append(o.anchors, logAnchor{idx: o.dlog.NextIndex(), block: num})
		}
	}
	rec := cutRecord{
		Num:      num,
		Hash:     hash,
		LastSeq:  o.lastSeq,
		SeenCur:  o.seenCur.ids,
		SeenPrev: o.seenPrev.ids,
	}
	if _, err := o.dlog.Append(encodeCutRecord(&rec)); err != nil {
		o.cfg.Logf("orderer %s: orderer log cut append: %v", o.cfg.ID, err)
	}
	if err := o.dlog.Sync(); err != nil {
		o.cfg.Logf("orderer %s: orderer log sync: %v", o.cfg.ID, err)
	}
	o.stats.durableHeight.Store(num + 1)
	o.pruneLog(num)
}

// pruneLog drops segments whose newest block is more than RetainBlocks
// behind the block just cut, keeping replay bounded while always
// starting it at a cut-record anchor (or the genesis segment).
func (o *Orderer) pruneLog(num uint64) {
	retain := uint64(o.cfg.RetainBlocks)
	if num < retain {
		return
	}
	floor := num - retain
	keep := -1
	for i, a := range o.anchors {
		if a.block <= floor {
			keep = i
		}
	}
	if keep < 0 {
		return
	}
	if err := o.dlog.PruneTo(o.anchors[keep].idx); err != nil {
		o.cfg.Logf("orderer %s: orderer log prune: %v", o.cfg.ID, err)
		return
	}
	o.anchors = o.anchors[keep:]
}

// DurableHeight returns the number of blocks whose cut records are
// durable (0 without a log). Exposed for tests and telemetry.
func (o *Orderer) DurableHeight() uint64 { return o.stats.durableHeight.Load() }
