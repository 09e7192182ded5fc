package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"parblockchain/internal/ledger"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/types"
)

// Fixed parts of the run shape. The two measured phases split --seconds
// between them.
const (
	// lateLimit is how late the generator may run at p99 before the run
	// measures the harness instead of the system.
	lateLimit = 50 * time.Millisecond
	// Set-up is repeated and its median reported, because a single one is
	// dominated by whatever the host was doing at that moment.
	setups = 5
)

// errInvalidRun marks a run whose numbers must not be recorded.
var errInvalidRun = errors.New("invalid run")

type runOptions struct {
	seed     int64
	seconds  int
	traced   bool
	traceOut string
	workDir  string // scratch directory of this process
	parnode  string // built cmd/parnode binary
	buildS   float64
}

// cluster is what the two deployment kinds have in common.
type cluster interface {
	client() submitter
	children() []int // pids of the node processes, if any
	// counters reads the cluster's own counters (see layers.go).
	counters() (counters, error)
	// height is the observer's ledger height, 0 when it cannot be read
	// while the cluster runs.
	height() uint64
	// stop quiesces the cluster, shuts it down and returns its executors'
	// final state and, over TCP, how long the observer's recovery took.
	stop() ([]replica, time.Duration, error)
	// discard tears the cluster down without checking it, and removes
	// what it left on disk; it is safe after stop.
	discard()
}

var clusterSeq int

// deploy starts a fresh cluster for the workload.
func deploy(s spec, o runOptions, traced bool, epoch time.Time) (cluster, error) {
	if !s.tcp {
		return startInproc(s, traced, epoch)
	}
	clusterSeq++
	dir := filepath.Join(o.workDir, fmt.Sprintf("cluster-%d", clusterSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := startTCP(s, o.parnode, dir, traced)
	if err != nil {
		return nil, err
	}
	atExit(c.kill)
	return c, nil
}

// setUp deploys a cluster and drives it until the first transaction
// commits, and returns how long that took. Over TCP the nodes are still
// booting when the first request goes out, so it is resent until one
// comes back; these transactions are not part of the measured stream.
func setUp(s spec, o runOptions, traced bool, gen *generator, epoch time.Time) (cluster, time.Duration, error) {
	start := time.Now()
	cl, err := deploy(s, o, traced, epoch)
	if err != nil {
		return nil, 0, err
	}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		app, op, _ := gen.nextOp()
		ch, err := cl.client().Submit(cl.client().Prepare(app, op))
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		select {
		case res, ok := <-ch:
			if ok && !res.Aborted {
				return cl, time.Since(start), nil
			}
			cl.discard()
			return nil, 0, fmt.Errorf("set-up: first transaction failed (aborted=%v)", res.Aborted)
		case <-time.After(500 * time.Millisecond):
		}
	}
	cl.discard()
	return nil, 0, errors.New("set-up: no transaction committed within 60s")
}

// checkLate refuses a run whose generator fell behind its schedule.
func (s summary) checkLate() error {
	if s.late > lateLimit {
		return fmt.Errorf("%w: the generator ran %v late at p99 (limit %v)", errInvalidRun, s.late, lateLimit)
	}
	return nil
}

// runWorkload runs one workload: timed and untraced for the end-to-end
// metrics, or traced for the per-layer ones. A run whose generator fell
// behind is not recorded; it is repeated once, on a fresh cluster, before
// the command gives up.
func runWorkload(s spec, o runOptions) (*runResult, error) {
	run := runTimed
	if o.traced {
		run = runTraced
	}
	res, err := run(s, o)
	if errors.Is(err, errInvalidRun) {
		logf("benchmark: %s: %v; running it again", s.name, err)
		res, err = run(s, o)
	}
	return res, err
}

func phaseLen(o runOptions, share int) time.Duration {
	return time.Duration(o.seconds) * time.Second / time.Duration(share)
}

// warmup is how long the cluster is driven at the workload's rate before
// anything is measured: two seconds, less only in second-long smoke runs.
func warmup(o runOptions) time.Duration {
	if w := phaseLen(o, 2); w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// runTimed is the gated run: set-up (median of several), warm-up, rate
// phase, peak phase, correctness gate.
func runTimed(s spec, o runOptions) (*runResult, error) {
	gen := newGenerator(s, o.seed)
	epoch := time.Now()
	var cl cluster
	var took []float64
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.discard()
		}
		var d time.Duration
		var err error
		if cl, d, err = setUp(s, o, false, gen, epoch); err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
	}

	d := newDriver(cl.client(), gen, epoch)
	ok := d.openLoop(phaseWarmup, s.rate, warmup(o))
	ok = ok && d.openLoop(phaseRate, s.rate, phaseLen(o, 2))
	var from, to int64
	if ok {
		from, to, _ = d.closedLoop(phasePeak, s.window, phaseLen(o, 2))
	}
	recs := d.finish()
	replicas, _, err := cl.stop()
	cl.discard()
	if err != nil {
		return nil, err
	}
	if _, err := gate(replicas, genesisKVs(s)); err != nil {
		return nil, err
	}
	res := summarize(recs, blockIndex(ledgerEntries(replicas[0].ledger)), from, to)
	if err := res.checkLate(); err != nil {
		return nil, err
	}
	return &runResult{
		workload: s.name, attempted: res.attempted, failed: res.failed, samples: len(res.latencies),
		metrics: map[string]float64{
			"throughput_tps": res.peakTPS,
			"commit_p50_ms":  res.p50,
			"setup_s":        median(took),
		},
	}, nil
}

// summary condenses the transaction records of one driver.
type summary struct {
	attempted, failed int
	latencies         []float64     // rate phase, due -> result, ms, ascending; a failure counts as the drain timeout
	p50, p95          float64       // rate phase: median over its one-second windows of each window's percentile, ms
	late              time.Duration // p99 of the generator's own lateness (see harnessLateness)
	submitUS          float64       // mean time inside Client.Submit, rate phase
	rateOK            int           // rate-phase transactions that committed
	peakTPS           float64
	peakHot           int // hot transactions committed inside the peak window
}

// ledgerEntries lists a ledger's blocks from genesis. The gate has
// already walked the same heights, so Get cannot fail here.
func ledgerEntries(led *ledger.Ledger) []ledger.Entry {
	entries := make([]ledger.Entry, led.Height())
	for h := range entries {
		entries[h], _ = led.Get(uint64(h))
	}
	return entries
}

// blockIndex maps every committed transaction to its block.
func blockIndex(entries []ledger.Entry) map[types.TxID]uint64 {
	blockOf := make(map[types.TxID]uint64, countTxns(entries))
	for _, e := range entries {
		for _, tx := range e.Block.Txns {
			blockOf[tx.ID] = e.Block.Header.Number
		}
	}
	return blockOf
}

// summarize condenses the records. The host's own disturbances last a
// second or two, so the three gated numbers are medians over parts of
// their phase, which a disturbance shorter than half the phase cannot
// move: latency percentiles are taken per one-second window of due
// times, throughput per run of consecutive blocks (see peakThroughput).
// [from, to] is the peak window; blockOf may be nil when there was none.
func summarize(recs []*txRec, blockOf map[types.TxID]uint64, from, to int64) summary {
	var out summary
	var rate []*txRec
	var submit float64
	var windows [][]float64 // rate-phase latencies by the second they were due in
	rateStart := int64(-1)
	for _, r := range recs {
		out.attempted++
		if r.status != statusOK {
			out.failed++
		}
		if r.phase != phaseRate {
			continue
		}
		rate = append(rate, r)
		submit += float64(r.submitted - r.sent)
		latency := ms(drainTimeout)
		if r.status == statusOK {
			out.rateOK++
			latency = float64(r.recv-r.due) / 1e6
		}
		out.latencies = append(out.latencies, latency)
		if rateStart < 0 {
			rateStart = r.due
		}
		w := int((r.due - rateStart) / int64(time.Second))
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], latency)
	}
	sort.Float64s(out.latencies)
	out.late = time.Duration(percentile(harnessLateness(rate), 0.99))
	if len(rate) > 0 {
		out.submitUS = submit / float64(len(rate)) / 1e3
	}
	var p50s, p95s []float64
	for _, w := range windows {
		sort.Float64s(w)
		p50s = append(p50s, percentile(w, 0.50))
		p95s = append(p95s, percentile(w, 0.95))
	}
	out.p50, out.p95 = median(p50s), median(p95s)
	out.peakTPS, out.peakHot = peakThroughput(recs, blockOf, from, to)
	return out
}

// harnessLateness returns, ascending, how late the generator itself sent
// each transaction of an open-loop phase (given in submission order):
// the time from due to sent, less the part of it the generator spent
// blocked inside earlier Submit calls. A Submit that blocks is the
// system pushing back, and timing from the due instant already charges
// that to the transactions it delays; what is left is the harness's own
// doing (an overslept timer, a starved goroutine) and says whether the
// run measured the system at all.
func harnessLateness(recs []*txRec) []float64 {
	out := make([]float64, len(recs))
	inSubmit := make([]int64, len(recs)+1) // inSubmit[k] = time inside Submit before the k-th transaction
	p := 0                                 // first transaction whose Submit returned after recs[i] was due
	for i, r := range recs {
		inSubmit[i+1] = inSubmit[i] + r.submitted - r.sent
		for p < i && recs[p].submitted <= r.due {
			p++
		}
		blocked := inSubmit[i] - inSubmit[p]
		if p < i && recs[p].sent < r.due {
			blocked -= r.due - recs[p].sent // the part of that Submit before the due instant
		}
		out[i] = float64(r.sent - r.due - blocked)
	}
	sort.Float64s(out)
	return out
}

// peakThroughput returns the closed-loop phase's committed transactions
// per second and how many hot transactions committed in its window.
//
// Results arrive a block at a time, so a count per fixed time window
// moves in whole blocks. Instead the rate is taken between block
// arrivals, where it is exact: for every run of m consecutive blocks (m
// is a tenth of the window's blocks), the transactions of the run
// divided by the time from the arrival of the block before it to the
// arrival of its last block. The median over all runs is reported. A
// block arrives when the first of its results does.
func peakThroughput(recs []*txRec, blockOf map[types.TxID]uint64, from, to int64) (tps float64, hot int) {
	if to <= from {
		return 0, 0
	}
	type arrival struct {
		at int64
		n  int
	}
	blocks := make(map[uint64]*arrival)
	total := 0
	for _, r := range recs {
		if r.phase != phasePeak || r.status != statusOK || r.recv < from || r.recv > to {
			continue
		}
		total++
		if r.hot {
			hot++
		}
		b := blocks[blockOf[r.id]]
		if b == nil {
			b = &arrival{at: r.recv}
			blocks[blockOf[r.id]] = b
		}
		b.n++
		if r.recv < b.at {
			b.at = r.recv
		}
	}
	nums := make([]uint64, 0, len(blocks))
	for num := range blocks {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	m := len(nums) / 10
	if m < 1 || blockOf == nil {
		return float64(total) / (float64(to-from) / 1e9), hot
	}
	cum := make([]int, len(nums)+1) // cum[i] = transactions in blocks before the i-th
	for i, num := range nums {
		cum[i+1] = cum[i] + blocks[num].n
	}
	var rates []float64
	for i := 0; i+m < len(nums); i++ {
		if dt := blocks[nums[i+m]].at - blocks[nums[i]].at; dt > 0 {
			rates = append(rates, float64(cum[i+m+1]-cum[i+1])/(float64(dt)/1e9))
		}
	}
	return median(rates), hot
}

// runTraced is the per-layer pass. It first runs the rate phase on an
// untraced cluster, only to learn the CPU cost per transaction without
// tracing, and then the whole shape on a traced one: block tracer on,
// tap installed (in process) or ops endpoints up (TCP).
func runTraced(s spec, o runOptions) (*runResult, error) {
	gen := newGenerator(s, o.seed)
	epoch := time.Now()
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0 // a metric a workload cannot observe reads 0; the README lists which
	}
	m["process.build_s"] = o.buildS

	base, _, err := setUp(s, o, false, gen, epoch)
	if err != nil {
		return nil, err
	}
	bd := newDriver(base.client(), gen, epoch)
	bd.openLoop(phaseWarmup, s.rate, warmup(o)/2)
	cpu0 := cpuTime(base.children())
	bd.openLoop(phaseRate, s.rate, phaseLen(o, 4))
	cpuUntraced := cpuTime(base.children()) - cpu0
	baseSum := summarize(bd.finish(), nil, 0, 0)
	base.discard()

	cl, _, err := setUp(s, o, true, gen, epoch)
	if err != nil {
		return nil, err
	}
	d := newDriver(cl.client(), gen, epoch) // the tap stamps on the same clock
	ok := d.openLoop(phaseWarmup, s.rate, warmup(o))
	cnt0, err := cl.counters()
	if err != nil {
		return nil, err
	}
	res0 := readResources(cl.children())
	ok = ok && d.openLoop(phaseRate, s.rate, phaseLen(o, 2))
	res1 := readResources(cl.children())
	cnt1, err := cl.counters()
	if err != nil {
		return nil, err
	}
	var from, to int64
	var h0, h1 uint64
	if ok {
		h0 = cl.height()
		from, to, _ = d.closedLoop(phasePeak, s.window, phaseLen(o, 4))
		h1 = cl.height()
	}
	cntEnd, err := cl.counters()
	if err != nil {
		return nil, err
	}
	if c, ok := cl.(*tcpCluster); ok {
		if err := c.halted(); err != nil {
			return nil, err
		}
	}
	m["process.peak_rss_mb"] = peakRSSMB(cl.children())
	recs := d.finish()
	replicas, recoverTime, err := cl.stop()
	defer cl.discard() // the TCP data directory is read once more below
	if err != nil {
		return nil, err
	}
	genesis := genesisKVs(s)
	hashAt, err := gate(replicas, genesis)
	if err != nil {
		return nil, err
	}
	entries := ledgerEntries(replicas[0].ledger)
	blockOf := blockIndex(entries)
	sum := summarize(recs, blockOf, from, to)
	if err := sum.checkLate(); err != nil {
		return nil, err
	}

	// Process and client.
	committed := math.Max(float64(sum.rateOK), 1)
	cpuTraced := res1.cpu - res0.cpu
	m["loadgen.late_p99_ms"] = ms(sum.late)
	m["process.cpu_us_per_tx"] = us(cpuTraced) / committed
	m["process.alloc_bytes_per_tx"] = float64(res1.allocBytes-res0.allocBytes) / committed
	m["process.gc_pause_ms"] = ms(res1.gcPause - res0.gcPause)
	m["oxii.submit_us"] = sum.submitUS
	m["oxii.commit_p95_ms"] = sum.p95
	m["oxii.commit_p99_ms"] = percentile(sum.latencies, 0.99)
	if baseSum.rateOK > 0 && cpuUntraced > 0 {
		perTxUntraced := us(cpuUntraced) / float64(baseSum.rateOK)
		m["telemetry.trace_overhead_share"] = (m["process.cpu_us_per_tx"] - perTxUntraced) / perTxUntraced
	}

	// Counters over the rate phase.
	rate := cnt1.sub(cnt0)
	if blocks := rate.blocksCut / numOrderers; blocks > 0 {
		m["ordering.txns_per_block"] = rate.txnsOrdered / rate.blocksCut
		m["ordering.graph_build_us_per_block"] = rate.graphNanos / rate.blocksCut / 1e3
		m["ordering.log_syncs_per_block"] = rate.logSyncs / rate.blocksCut
		m["execution.commit_msgs_per_block"] = rate.commitMsgs / blocks
	}
	if rate.committed > 0 {
		m["consensus.msgs_per_tx"] = rate.consensus / rate.committed
		m["transport.msgs_per_tx"] = rate.msgs / rate.committed
		m["transport.bytes_per_tx"] = rate.bytes / rate.committed
	}
	if rate.walAppends > 0 {
		m["persist.syncs_per_block"] = rate.walSyncs / rate.walAppends
	}
	for _, stage := range telemetry.StageNames {
		m["execution.stage_"+stage+"_ms_p50"] = ms(rate.stages[stage].quantile(0.5))
	}
	// Counters over the cluster's life, read at quiescence.
	if want := cntEnd.committed * float64(s.agentsPerApp); want > 0 {
		m["execution.reexec_share"] = (cntEnd.executed - want) / want
	}
	m["execution.msgs_dropped_future"] = cntEnd.dropped

	// Spans.
	var spans *spanSet
	switch c := cl.(type) {
	case *inproc:
		spans = buildSpans(recs, blockOf, c.tap)
		m["ordering.order_ms_p50"] = spans.p50("ordering.order") / 1e6
		m["execution.deliver_to_externalize_ms_p50"] = spans.p50("execution.deliver_to_externalize") / 1e6
		m["oxii.notify_us_p50"] = spans.p50("oxii.notify") / 1e3
		m["execution.stage_residual_ms"] = ms(spans.meanBlockSpan() - rate.stages["total"].mean())
	case *tcpCluster:
		// No tap on real sockets: the node's own tracer gives delivery to
		// externalize, a probe gives the notification hop, and ordering
		// is what is left of the median commit latency.
		notify, err := probeNotifyTCP()
		if err != nil {
			return nil, err
		}
		d2e := rate.stages["total"].quantile(0.5)
		m["execution.deliver_to_externalize_ms_p50"] = ms(d2e)
		m["oxii.notify_us_p50"] = us(notify)
		m["ordering.order_ms_p50"] = sum.p50 - ms(d2e) - ms(notify)
	}

	// Peak phase: what the dependency graph allowed against what was achieved.
	if s.cost > 0 && h1 > h0 && to > from {
		window := time.Duration(to - from)
		if sum.peakHot > 0 {
			m["execution.hop_ms"] = ms(window) / float64(sum.peakHot)
		}
		chain := newChainDepth()
		txns := 0
		for _, e := range entries[h0:h1] {
			chain.addBlock(e.Block)
			txns += len(e.Block.Txns)
		}
		critical := time.Duration(chain.max) * s.cost
		capacity := time.Duration(txns*s.agentsPerApp) * s.cost / (numExecutors * execWorkers)
		if capacity > critical {
			critical = capacity
		}
		m["execution.parallel_efficiency"] = float64(critical) / float64(window)
	}

	// Probes on the run's own blocks.
	in := probeInput{entries: entries, genesis: genesis, hashAt: hashAt, tmpDir: o.workDir}
	if err := runProbes(in, m); err != nil {
		return nil, err
	}
	if c, ok := cl.(*tcpCluster); ok {
		// The deployment's real data directory beats the probe's.
		if n := countTxns(entries); n > 0 {
			m["persist.wal_bytes_per_tx"] = float64(dirBytes(filepath.Join(c.cfg.NodeDataDir("e1"), "wal"))) / float64(n)
		}
		m["persist.recover_s"] = recoverTime.Seconds()
	}
	if o.traceOut != "" && spans != nil {
		if err := spans.write(o.traceOut, rate.stages); err != nil {
			return nil, err
		}
	}
	return &runResult{
		workload: s.name, attempted: sum.attempted + baseSum.attempted, failed: sum.failed + baseSum.failed,
		samples: len(sum.latencies), traced: true, metrics: m,
	}, nil
}

// span is one interval of one transaction's life, in nanoseconds since
// the run's epoch.
type span struct {
	tx         types.TxID
	name       string
	start, end int64
}

// spanNames are the spans of a traced transaction, in order: how late the
// generator sent it, then the four layer spans. They telescope (each
// starts where the previous one ends), so the four sum to sent -> result
// and all five to the commit latency, due -> result, exactly.
var spanNames = []string{"loadgen.late", "oxii.submit", "ordering.order", "execution.deliver_to_externalize", "oxii.notify"}

type spanSet struct {
	spans  []span
	blocks map[uint64][2]int64 // block -> NEWBLOCK sent, externalized
}

// buildSpans cuts every committed rate-phase transaction's life at the
// tap's two per-block instants. The commit hook runs after the router
// has already released the block's waiters, so a block counts as
// externalized at the hook's stamp or at its first result's arrival,
// whichever is earlier.
func buildSpans(recs []*txRec, blockOf map[types.TxID]uint64, t *tap) *spanSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &spanSet{blocks: make(map[uint64][2]int64)}
	for _, r := range recs {
		if r.phase != phaseRate || r.status != statusOK {
			continue
		}
		b := blockOf[r.id]
		at, seen := out.blocks[b]
		if !seen {
			at = [2]int64{t.sent[b], t.done[b]}
		}
		if r.recv < at[1] {
			at[1] = r.recv
		}
		out.blocks[b] = at
	}
	for _, r := range recs {
		if r.phase != phaseRate || r.status != statusOK {
			continue
		}
		at := out.blocks[blockOf[r.id]]
		cuts := []int64{r.due, r.sent, r.submitted, at[0], at[1], r.recv}
		for i, name := range spanNames {
			out.spans = append(out.spans, span{r.id, name, cuts[i], cuts[i+1]})
		}
	}
	return out
}

// p50 returns the median duration of the named span, in nanoseconds.
func (s *spanSet) p50(name string) float64 {
	var d []float64
	for _, sp := range s.spans {
		if sp.name == name {
			d = append(d, float64(sp.end-sp.start))
		}
	}
	return median(d)
}

// meanBlockSpan is the mean NEWBLOCK-sent to externalized time per block.
func (s *spanSet) meanBlockSpan() time.Duration {
	if len(s.blocks) == 0 {
		return 0
	}
	var total int64
	for _, at := range s.blocks {
		total += at[1] - at[0]
	}
	return time.Duration(total / int64(len(s.blocks)))
}

// write stores the spans as tab-separated lines, followed by the block
// tracer's stages, which subdivide execution.deliver_to_externalize for
// the pass as a whole (the tracer keeps histograms, not per-block times).
func (s *spanSet) write(path string, stages map[string]hist) error {
	var b strings.Builder
	b.WriteString("# tx\tspan\tstart_ns\tend_ns\n")
	for _, sp := range s.spans {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\n", sp.tx, sp.name, sp.start, sp.end)
	}
	b.WriteString("# stage\tblocks\tmean_ns\tp50_ns\n")
	for _, stage := range telemetry.StageNames {
		h := stages[stage]
		fmt.Fprintf(&b, "# %s\t%.0f\t%d\t%d\n", stage, h.n, h.mean(), h.quantile(0.5))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
