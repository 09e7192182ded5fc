package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"parblockchain/internal/telemetry"
	"parblockchain/internal/types"
)

// counters is a reading of the cluster's own monotonic counters, taken
// from outside: Stats() and the network's tallies in process, a /metrics
// scrape of every node over TCP. Metrics are differences of two readings.
type counters struct {
	blocksCut   float64 // summed over orderers
	txnsOrdered float64 // summed over orderers
	graphNanos  float64 // summed over orderers
	logSyncs    float64 // orderer-log fsyncs, summed over orderers
	walSyncs    float64 // executor WAL fsyncs, summed over executors
	walAppends  float64 // executor WAL records, summed over executors
	msgs        float64 // messages (frames) sent by every node
	bytes       float64 // bytes sent by every node
	consensus   float64 // of msgs, those the consensus protocol exchanged
	commitMsgs  float64 // COMMIT multicasts, summed over executors
	executed    float64 // local executions, summed over executors
	dropped     float64 // messages shed by executors' buffering bounds
	committed   float64 // transactions committed at the observer
	stages      map[string]hist
}

func (a counters) sub(b counters) counters {
	out := counters{
		blocksCut: a.blocksCut - b.blocksCut, txnsOrdered: a.txnsOrdered - b.txnsOrdered,
		graphNanos: a.graphNanos - b.graphNanos, logSyncs: a.logSyncs - b.logSyncs,
		walSyncs: a.walSyncs - b.walSyncs, walAppends: a.walAppends - b.walAppends,
		msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes, consensus: a.consensus - b.consensus,
		commitMsgs: a.commitMsgs - b.commitMsgs, executed: a.executed - b.executed,
		dropped: a.dropped - b.dropped, committed: a.committed - b.committed,
		stages: make(map[string]hist, len(a.stages)),
	}
	for name, h := range a.stages {
		out.stages[name] = h.sub(b.stages[name])
	}
	return out
}

// protocolPayloads are the payload types that are not consensus traffic;
// everything else on the in-process network is.
var protocolPayloads = []any{
	(*types.RequestMsg)(nil), (*types.NewBlockMsg)(nil), (*types.CommitMsg)(nil),
	(*types.BlockSegmentMsg)(nil), (*types.BlockSealMsg)(nil),
	(*types.StateSyncRequestMsg)(nil), (*types.StateSyncResponseMsg)(nil),
}

func (c *inproc) counters() (counters, error) {
	var out counters
	for _, o := range c.nw.Orderers {
		s := o.Stats()
		out.blocksCut += float64(s.BlocksCut)
		out.txnsOrdered += float64(s.TxnsOrdered)
		out.graphNanos += float64(s.GraphBuildNanos)
		out.logSyncs += float64(s.LogSyncs)
	}
	for _, e := range c.nw.Executors {
		s := e.Stats()
		out.commitMsgs += float64(s.CommitMsgsSent)
		out.executed += float64(s.TxExecuted)
		out.dropped += float64(s.MsgsDroppedFuture)
	}
	out.committed = float64(c.nw.Executors[0].Stats().TxCommitted)
	out.msgs = float64(c.net.MessageCount(""))
	out.bytes = float64(c.net.BytesSent())
	out.consensus = out.msgs
	for _, p := range protocolPayloads {
		out.consensus -= float64(c.net.MessageCount(fmt.Sprintf("%T", p)))
	}
	out.stages = make(map[string]hist)
	for name, snap := range c.nw.Executors[0].Tracer().StageSnapshot() {
		out.stages[name] = histOf(snap)
	}
	return out, nil
}

// counters scrapes every node's /metrics. Orderers send consensus traffic
// and one NEWBLOCK per block to each executor, so their consensus share
// is their frames minus those.
func (c *tcpCluster) counters() (counters, error) {
	var out counters
	var ordererFrames float64
	for _, id := range nodeIDs("o", numOrderers) {
		text, err := c.scrape(string(id), "/metrics")
		if err != nil {
			return out, err
		}
		m := parseProm(text)
		out.blocksCut += m.value("parblockchain_orderer_blocks_cut_total")
		out.txnsOrdered += m.value("parblockchain_orderer_txns_ordered_total")
		out.graphNanos += m.value("parblockchain_orderer_graph_build_nanos_total")
		out.logSyncs += m.value("parblockchain_orderer_log_fsyncs_total")
		ordererFrames += m.value("parblockchain_transport_frames_sent_total")
		out.bytes += m.value("parblockchain_transport_bytes_sent_total")
	}
	out.msgs = ordererFrames
	out.consensus = ordererFrames - out.blocksCut*numExecutors
	for i, id := range nodeIDs("e", numExecutors) {
		text, err := c.scrape(string(id), "/metrics")
		if err != nil {
			return out, err
		}
		m := parseProm(text)
		out.commitMsgs += m.value("parblockchain_executor_commit_msgs_sent_total")
		out.executed += m.value("parblockchain_executor_tx_executed_total")
		out.dropped += m.value("parblockchain_executor_msgs_dropped_total")
		out.walSyncs += m.value("parblockchain_persist_wal_syncs_total")
		out.walAppends += m.value("parblockchain_persist_wal_appends_total")
		out.msgs += m.value("parblockchain_transport_frames_sent_total")
		out.bytes += m.value("parblockchain_transport_bytes_sent_total")
		if i == 0 {
			out.committed = m.value("parblockchain_executor_tx_committed_total")
			out.stages = m.stageHists("parblockchain_block_stage_seconds")
		}
	}
	// The client's own endpoint, through a registry of the benchmark's.
	reg := telemetry.NewRegistry()
	c.ep.RegisterTelemetry(reg, nil)
	var own strings.Builder
	if err := reg.WritePrometheus(&own); err != nil {
		return out, err
	}
	m := parseProm(own.String())
	out.msgs += m.value("parblockchain_transport_frames_sent_total")
	out.bytes += m.value("parblockchain_transport_bytes_sent_total")
	return out, nil
}

// hist is a bucketed histogram of nanosecond observations: counts[i]
// observations no greater than upper[i] (and greater than upper[i-1]).
type hist struct {
	upper  []float64
	counts []float64
	sum    float64 // nanoseconds
	n      float64
}

func histOf(s telemetry.HistogramSnapshot) hist {
	h := hist{sum: float64(s.Sum), n: float64(s.Count)}
	for i, c := range s.Buckets {
		h.upper = append(h.upper, float64(telemetry.BucketUpper(i)))
		h.counts = append(h.counts, float64(c))
	}
	return h
}

// sub removes an earlier reading of the same histogram. The earlier one
// may have fewer buckets (the exposition stops at the highest occupied).
func (h hist) sub(b hist) hist {
	out := hist{upper: h.upper, counts: append([]float64(nil), h.counts...), sum: h.sum - b.sum, n: h.n - b.n}
	for i := range b.counts {
		if i < len(out.counts) {
			out.counts[i] -= b.counts[i]
		}
	}
	return out
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation; the buckets are powers of two, so it is an estimate.
func (h hist) quantile(q float64) time.Duration {
	if h.n <= 0 {
		return 0
	}
	target, cum, lower := q*h.n, 0.0, 0.0
	for i, c := range h.counts {
		if c > 0 && cum+c >= target {
			return time.Duration(lower + (h.upper[i]-lower)*(target-cum)/c)
		}
		cum += c
		lower = h.upper[i]
	}
	return time.Duration(lower)
}

func (h hist) mean() time.Duration {
	if h.n <= 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promText []promSample

// parseProm reads the subset of the text format the repo's registry
// writes: `name{k="v",...} value`, one sample per line, no escapes in
// the label values the benchmark looks at.
func parseProm(text string) promText {
	var out promText
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if open := strings.IndexByte(line, '{'); open >= 0 && open < sp {
			s.name = line[:open]
			s.labels = make(map[string]string)
			for _, kv := range strings.Split(strings.TrimSuffix(line[open+1:sp], "}"), ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 {
					s.labels[kv[:eq]] = strings.Trim(kv[eq+1:], `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// value sums every series of a family (one node exposes one series of
// each family the benchmark reads this way).
func (p promText) value(name string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// stageHists rebuilds the per-stage histograms of a histogram family
// labelled stage="...", from its cumulative _bucket, _sum and _count
// series (seconds on the wire, nanoseconds here).
func (p promText) stageHists(family string) map[string]hist {
	type bucket struct{ le, cum float64 }
	buckets := make(map[string][]bucket)
	out := make(map[string]hist)
	for _, s := range p {
		stage := s.labels["stage"]
		switch s.name {
		case family + "_bucket":
			if le := s.labels["le"]; le != "+Inf" {
				if v, err := strconv.ParseFloat(le, 64); err == nil {
					buckets[stage] = append(buckets[stage], bucket{v * 1e9, s.value})
				}
			}
		case family + "_sum":
			h := out[stage]
			h.sum = s.value * 1e9
			out[stage] = h
		case family + "_count":
			h := out[stage]
			h.n = s.value
			out[stage] = h
		}
	}
	for stage, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		h := out[stage]
		prev := 0.0
		for _, b := range bs {
			h.upper = append(h.upper, b.le)
			h.counts = append(h.counts, b.cum-prev)
			prev = b.cum
		}
		out[stage] = h
	}
	return out
}
