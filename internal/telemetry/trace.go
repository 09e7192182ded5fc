package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mark is one timestamped point in a block's lifecycle. Marks are set in
// roughly this order, but the pipeline legitimately permutes some (a
// NEWBLOCK is its orderer's endorsement, so MarkSealed lands at the
// delivery that completes the orderer quorum).
// Stage deltas clamp at zero, so permutations show up as a zero-cost
// stage rather than garbage.
type Mark int

// Lifecycle marks, in nominal pipeline order.
const (
	MarkDelivered    Mark = iota // consensus delivery (first NEWBLOCK)
	MarkAdmitted                 // admitted into the pipeline window
	MarkDispatched               // first transaction handed to a worker
	MarkDrained                  // last local transaction executed
	MarkSealed                   // orderer quorum endorsed the block
	MarkFinalized                // final results applied, WAL record appended
	MarkFsynced                  // WAL fsync covering the block completed
	MarkExternalized             // appended to the ledger, effects released
	numMarks
)

// StageNames are the per-stage latency buckets derived from consecutive
// marks: StageNames[i] spans Mark(i) -> Mark(i+1).
var StageNames = [numMarks - 1]string{
	"admission",
	"dispatch",
	"execute",
	"seal",
	"finalize",
	"fsync",
	"externalize",
}

// BlockTrace is the span timeline of one block. Marks are unix
// nanoseconds, zero when not (yet) reached; they are set and read with
// atomics so the fsync goroutine and the actor loop can both stamp one.
type BlockTrace struct {
	height uint64
	marks  [numMarks]int64
}

// Mark stamps m with the current time if it is unset. Nil-safe and
// idempotent: tracing disabled means nil traces and zero time.Now calls.
func (t *BlockTrace) Mark(m Mark) {
	if t == nil || m < 0 || m >= numMarks {
		return
	}
	now := time.Now().UnixNano()
	atomic.CompareAndSwapInt64(&t.marks[m], 0, now)
}

// MarkAt stamps m with an already-taken timestamp (batch paths stamp
// many blocks with one clock read).
func (t *BlockTrace) MarkAt(m Mark, at time.Time) {
	if t == nil || m < 0 || m >= numMarks {
		return
	}
	atomic.CompareAndSwapInt64(&t.marks[m], 0, at.UnixNano())
}

// TraceRecord is the JSON form of a completed block trace.
type TraceRecord struct {
	Height        uint64           `json:"height"`
	DeliveredUnix int64            `json:"delivered_unix_ns"`
	TotalNanos    int64            `json:"total_ns"`
	StageNanos    map[string]int64 `json:"stage_ns"`
}

// BlockTracer aggregates completed block traces into per-stage latency
// histograms and keeps the ringSize slowest blocks (by delivery-to-
// externalize latency) for postmortem dumps. Safe for concurrent use.
type BlockTracer struct {
	stages [numMarks - 1]Histogram
	total  Histogram

	mu       sync.Mutex
	ringSize int
	slowest  []TraceRecord // sorted by TotalNanos descending, len <= ringSize
}

// DefaultTraceRing is the slowest-block ring size when the knob is 0.
const DefaultTraceRing = 32

// NewBlockTracer returns a tracer keeping the ringSize slowest traces
// (DefaultTraceRing when ringSize <= 0).
func NewBlockTracer(ringSize int) *BlockTracer {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	return &BlockTracer{ringSize: ringSize}
}

// Start returns a fresh trace for the block at height. The caller stamps
// MarkDelivered (and the rest) as the block moves through the pipeline.
func (bt *BlockTracer) Start(height uint64) *BlockTrace {
	if bt == nil {
		return nil
	}
	return &BlockTrace{height: height}
}

// Finish folds a completed trace into the per-stage histograms and the
// slowest-blocks ring. Unset marks inherit the previous mark's time, so
// their stage costs zero instead of poisoning the aggregate. Nil-safe.
func (bt *BlockTracer) Finish(t *BlockTrace) {
	if bt == nil || t == nil {
		return
	}
	var marks [numMarks]int64
	for i := range marks {
		marks[i] = atomic.LoadInt64(&t.marks[i])
	}
	rec := TraceRecord{
		Height:        t.height,
		DeliveredUnix: marks[MarkDelivered],
		StageNanos:    make(map[string]int64, numMarks-1),
	}
	prev := marks[MarkDelivered]
	for i := 1; i < int(numMarks); i++ {
		cur := marks[i]
		if cur == 0 {
			cur = prev
		}
		d := cur - prev
		if d < 0 {
			d = 0
		}
		bt.stages[i-1].Observe(d)
		rec.StageNanos[StageNames[i-1]] = d
		if cur > prev {
			prev = cur
		}
	}
	total := marks[MarkExternalized] - marks[MarkDelivered]
	if total < 0 || marks[MarkExternalized] == 0 || marks[MarkDelivered] == 0 {
		total = 0
	}
	rec.TotalNanos = total
	bt.total.Observe(total)

	bt.mu.Lock()
	defer bt.mu.Unlock()
	if len(bt.slowest) < bt.ringSize {
		bt.slowest = append(bt.slowest, rec)
	} else if last := len(bt.slowest) - 1; bt.slowest[last].TotalNanos < total {
		bt.slowest[last] = rec
	} else {
		return
	}
	sort.Slice(bt.slowest, func(i, j int) bool {
		return bt.slowest[i].TotalNanos > bt.slowest[j].TotalNanos
	})
}

// Slowest returns the recorded slowest traces, slowest first.
func (bt *BlockTracer) Slowest() []TraceRecord {
	if bt == nil {
		return nil
	}
	bt.mu.Lock()
	defer bt.mu.Unlock()
	out := make([]TraceRecord, len(bt.slowest))
	copy(out, bt.slowest)
	return out
}

// StageSnapshot returns per-stage histogram snapshots keyed by stage
// name, plus "total" for the delivery-to-externalize span.
func (bt *BlockTracer) StageSnapshot() map[string]HistogramSnapshot {
	if bt == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot, numMarks)
	for i, name := range StageNames {
		out[name] = bt.stages[i].Snapshot()
	}
	out["total"] = bt.total.Snapshot()
	return out
}

// Register exposes the per-stage histograms on reg as
// <name>{stage="..."} in seconds (observations are nanoseconds). The
// extra labels are merged into every series.
func (bt *BlockTracer) Register(reg *Registry, name, help string, extra Labels) {
	if bt == nil || reg == nil {
		return
	}
	for i, stage := range StageNames {
		reg.RegisterHistogram(name, help, withLabel(extra, "stage", stage), 1e9, &bt.stages[i])
	}
	reg.RegisterHistogram(name, help, withLabel(extra, "stage", "total"), 1e9, &bt.total)
}

func withLabel(base Labels, k, v string) Labels {
	out := make(Labels, len(base)+1)
	for bk, bv := range base {
		out[bk] = bv
	}
	out[k] = v
	return out
}
