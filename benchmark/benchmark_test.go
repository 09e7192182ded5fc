package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/types"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, s := range workloads {
		a, b, other := newGenerator(s, 7), newGenerator(s, 7), newGenerator(s, 8)
		differs := false
		for i := 0; i < 1000; i++ {
			appA, opA, hotA := a.nextOp()
			appB, opB, hotB := b.nextOp()
			if appA != appB || hotA != hotB || !reflect.DeepEqual(opA, opB) {
				t.Fatalf("%s: tx %d differs between two generators with the same seed", s.name, i)
			}
			if _, opC, _ := other.nextOp(); !reflect.DeepEqual(opA, opC) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same stream", s.name)
		}
	}
}

func TestGeneratorHotShareIsExact(t *testing.T) {
	for _, s := range workloads {
		g := newGenerator(s, 3)
		hot := 0
		hotApps := map[types.AppID]int{}
		for i := 0; i < 5000; i++ {
			app, op, isHot := g.nextOp()
			touchesHot := op.Params[0] == g.hotKey()
			if isHot != touchesHot {
				t.Fatalf("%s: tx %d flagged hot=%v but debits %s", s.name, i, isHot, op.Params[0])
			}
			if isHot {
				hot++
				hotApps[app]++
			}
		}
		if want := 5000 * s.hotPer100 / 100; hot != want {
			t.Errorf("%s: %d hot transactions in 5000, want exactly %d", s.name, hot, want)
		}
		switch {
		case s.crossApp && len(hotApps) != numApps:
			t.Errorf("%s: hot transactions on %d apps, want all %d", s.name, len(hotApps), numApps)
		case !s.crossApp && s.hotPer100 > 0 && (len(hotApps) != 1 || hotApps["app1"] == 0):
			t.Errorf("%s: hot transactions on %v, want app1 only", s.name, hotApps)
		}
	}
}

// A 0% workload must have no conflicts inside the executors' pipeline
// window, or "independent" would not be.
func TestColdTransfersAreDisjoint(t *testing.T) {
	g := newGenerator(workloads[0], 5)
	var sets []depgraph.RWSet
	for i := 0; i < 8*blockTxns; i++ {
		_, op, _ := g.nextOp()
		sets = append(sets, depgraph.RWSet{Reads: op.Reads, Writes: op.Writes})
	}
	if n := depgraph.Build(sets, depgraph.Standard).EdgeCount(); n != 0 {
		t.Errorf("%d conflicts among %d consecutive cold transfers", n, len(sets))
	}
}

func TestPercentileRule(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// The highest percentile reported is the one with >= 10 samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{199, 0}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// fakeClient commits every transaction after a fixed service time. Its
// block-th Submit blocks for blockFor first, like a full socket.
type fakeClient struct {
	service  time.Duration
	ts       uint64
	block    uint64
	blockFor time.Duration
}

func (f *fakeClient) Prepare(app types.AppID, op types.Operation) *types.Transaction {
	f.ts++
	return &types.Transaction{ID: types.TxID(string(rune('a'+f.ts%26)) + "-tx"), App: app, Client: "c1", ClientTS: f.ts, Op: op}
}

func (f *fakeClient) Submit(tx *types.Transaction) (<-chan types.TxResult, error) {
	if f.blockFor > 0 && f.ts == f.block {
		time.Sleep(f.blockFor)
	}
	ch := make(chan types.TxResult, 1)
	time.AfterFunc(f.service, func() { ch <- types.TxResult{TxID: tx.ID} })
	return ch, nil
}

// A sender that stops for a while must not hide the stop: transactions
// that were due during it are timed from when they were due.
func TestOpenLoopChargesAStalledSender(t *testing.T) {
	const (
		rate    = 1000
		stall   = 100 * time.Millisecond
		service = time.Millisecond
	)
	d := newDriver(&fakeClient{service: service}, newGenerator(workloads[0], 1), time.Now())
	d.stall = func(i int) {
		if i == 50 {
			time.Sleep(stall)
		}
	}
	if !d.openLoop(phaseRate, rate, 300*time.Millisecond) {
		t.Fatal("open loop lost transactions")
	}
	recs := d.finish()
	if len(recs) != 300 {
		t.Fatalf("%d transactions sent, want 300", len(recs))
	}
	for i, r := range recs {
		if i > 0 {
			if gap := r.due - recs[i-1].due; gap < int64(900*time.Microsecond) || gap > int64(1100*time.Microsecond) {
				t.Fatalf("tx %d is due %v after its predecessor; the schedule must not move with the stall", i, time.Duration(gap))
			}
		}
	}
	// Transaction 50 itself and the ~100 due during the stall are late;
	// the one sent right after it waited (almost) the whole stall.
	if late := time.Duration(recs[50].sent - recs[50].due); late < stall {
		t.Errorf("tx 50 sent %v after it was due, want at least the %v stall", late, stall)
	}
	if lat := time.Duration(recs[51].recv - recs[51].due); lat < stall-2*time.Millisecond {
		t.Errorf("tx 51 latency %v: the stall was not charged to it", lat)
	}
	sum := summarize(recs, nil, 0, 0)
	if sum.late < stall/2 {
		t.Errorf("generator lateness p99 = %v, want about the %v stall", sum.late, stall)
	}
	if fromSend := time.Duration(recs[51].recv - recs[51].sent); fromSend > 50*time.Millisecond {
		t.Errorf("tx 51 took %v from send to result; only due-time accounting should see the stall", fromSend)
	}
	if sum.failed != 0 || sum.attempted != 300 {
		t.Errorf("attempted %d failed %d, want 300 and 0", sum.attempted, sum.failed)
	}
}

// A Submit that blocks is the system pushing back: the transactions it
// delays are charged for it, but the generator is not called late.
func TestBlockedSubmitIsNotHarnessLateness(t *testing.T) {
	const stall = 100 * time.Millisecond
	client := &fakeClient{service: time.Millisecond, block: 50, blockFor: stall}
	d := newDriver(client, newGenerator(workloads[0], 1), time.Now())
	if !d.openLoop(phaseRate, 1000, 300*time.Millisecond) {
		t.Fatal("open loop lost transactions")
	}
	recs := d.finish()
	if lat := time.Duration(recs[60].recv - recs[60].due); lat < stall/2 {
		t.Errorf("tx 60 latency %v: the blocked Submit was not charged to it", lat)
	}
	if sent := time.Duration(recs[60].sent - recs[60].due); sent < stall/2 {
		t.Errorf("tx 60 sent %v after it was due, want it held up behind the blocked Submit", sent)
	}
	if sum := summarize(recs, nil, 0, 0); sum.late > stall/2 {
		t.Errorf("generator lateness p99 = %v, want only its own (the Submit blocked for %v)", sum.late, stall)
	}
}

func TestClosedLoopKeepsTheWindowFull(t *testing.T) {
	const window = 20
	d := newDriver(&fakeClient{service: 5 * time.Millisecond}, newGenerator(workloads[0], 1), time.Now())
	from, to, ok := d.closedLoop(phasePeak, window, 200*time.Millisecond)
	if !ok {
		t.Fatal("closed loop lost transactions")
	}
	sum := summarize(d.finish(), nil, from, to)
	// 20 in flight at 5 ms each is 4000/s at best; timers make it less.
	if sum.peakTPS < 1000 || sum.peakTPS > 4100 {
		t.Errorf("closed loop ran at %.0f tx/s, want close to %d/5ms", sum.peakTPS, window)
	}
}

// The benchmark's chain-depth rule must agree with depgraph on every
// block shape, or parallel_efficiency would use the wrong bound.
func TestChainDepthMatchesDepgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []string{"a", "b", "c", "d", "e", "f"}
	pick := func() []string {
		var out []string
		for _, k := range keys {
			if rng.Intn(4) == 0 {
				out = append(out, k)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		block := &types.Block{}
		var sets []depgraph.RWSet
		for i := 0; i < 1+rng.Intn(40); i++ {
			reads, writes := pick(), pick()
			block.Txns = append(block.Txns, &types.Transaction{Op: types.Operation{Reads: reads, Writes: writes}})
			sets = append(sets, depgraph.RWSet{Reads: reads, Writes: writes})
		}
		want := depgraph.Build(sets, depgraph.Standard).CriticalPathLen()
		if pairwise := depgraph.BuildPairwise(sets, depgraph.Standard).CriticalPathLen(); pairwise != want {
			t.Fatalf("trial %d: depgraph disagrees with itself: %d vs %d", trial, want, pairwise)
		}
		if got := newChainDepth().addBlock(block); got != want {
			t.Fatalf("trial %d: chain depth %d, depgraph critical path %d", trial, got, want)
		}
	}
	// The workload generator's own shape: 20% on one hot key.
	g := newGenerator(workloads[1], 2)
	block := &types.Block{}
	for i := 0; i < blockTxns; i++ {
		_, op, _ := g.nextOp()
		block.Txns = append(block.Txns, &types.Transaction{Op: op})
	}
	if got := newChainDepth().addBlock(block); got != blockTxns*workloads[1].hotPer100/100 {
		t.Errorf("hot chain in a %d-tx block is %d long, want %d", blockTxns, got, blockTxns*workloads[1].hotPer100/100)
	}
}

// The traced pass's spans telescope: the four layer spans sum to sent ->
// result and, with the generator's lateness, to the commit latency.
func TestSpansSumToTheLatency(t *testing.T) {
	tp := newTap(time.Now())
	tp.sent[7], tp.done[7] = 400, 900
	recs := []*txRec{
		{id: "a", due: 100, sent: 130, submitted: 140, recv: 1000, phase: phaseRate, status: statusOK},
		// Its waiter ran before the commit hook stamped the block.
		{id: "b", due: 200, sent: 200, submitted: 215, recv: 880, phase: phaseRate, status: statusOK},
		{id: "c", due: 300, sent: 300, submitted: 310, recv: 950, phase: phasePeak, status: statusOK},
	}
	blockOf := map[types.TxID]uint64{"a": 7, "b": 7, "c": 7}
	spans := buildSpans(recs, blockOf, tp)
	if got, want := len(spans.spans), 2*len(spanNames); got != want {
		t.Fatalf("%d spans, want %d (rate-phase transactions only)", got, want)
	}
	byTx := map[types.TxID][]span{}
	for _, sp := range spans.spans {
		byTx[sp.tx] = append(byTx[sp.tx], sp)
	}
	for _, r := range recs[:2] {
		var all, layers int64
		for i, sp := range byTx[r.id] {
			if sp.name != spanNames[i] || sp.end < sp.start {
				t.Errorf("tx %s span %d is %s [%d,%d], want a forward %s", r.id, i, sp.name, sp.start, sp.end, spanNames[i])
			}
			if i > 0 && sp.start != byTx[r.id][i-1].end {
				t.Errorf("tx %s: %s does not start where %s ends", r.id, sp.name, spanNames[i-1])
			}
			all += sp.end - sp.start
			if i > 0 {
				layers += sp.end - sp.start
			}
		}
		if all != r.recv-r.due || layers != r.recv-r.sent {
			t.Errorf("tx %s: spans sum to %d and %d, want latency %d and sent-to-result %d",
				r.id, all, layers, r.recv-r.due, r.recv-r.sent)
		}
	}
	if got := spans.meanBlockSpan(); got != 880-400 {
		t.Errorf("block span %v, want 480ns (externalized at the first result's arrival)", got)
	}
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every metric and workload the benchmark prints is declared in
// BENCHMARK.json with the same unit, and the other way round.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, defs []metricDef, declared []specMetric) {
		if len(defs) != len(declared) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		byName := map[string]specMetric{}
		for _, m := range declared {
			byName[m.Name] = m
		}
		for _, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: name %q or unit %q is outside the allowed alphabet", kind, d.name, d.unit)
			}
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: %s is printed but not in BENCHMARK.json", kind, d.name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: %s is %s/%s in the benchmark, %s/%s in BENCHMARK.json", kind, d.name, d.unit, d.better, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", endToEndDefs, spec.EndToEnd)
	check("per_layer", perLayerDefs, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or the why differs or is too long)", i, w.Name, workloads[i].name)
		}
	}

	// The driver line carries exactly the declared metrics.
	res := &runResult{workload: "w", attempted: 1, metrics: map[string]float64{}}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 1 || len(line.Metrics) != len(endToEndDefs) {
		t.Errorf("driver line %+v does not carry the end-to-end metrics", line)
	}
}

func stored(median, q1, q3 float64) storedMetric {
	return storedMetric{Median: median, Q1: q1, Q3: q3}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   storedMetric
		better string
		want   string
	}{
		{"same", stored(100, 99, 101), stored(101, 100, 102), "lower", verdictOK},
		{"slower latency", stored(100, 99, 101), stored(115, 114, 116), "lower", verdictWorse},
		{"faster latency", stored(100, 99, 101), stored(80, 79, 81), "lower", verdictOK},
		{"lower throughput", stored(1000, 990, 1010), stored(850, 840, 860), "higher", verdictWorse},
		{"higher throughput", stored(1000, 990, 1010), stored(1200, 1190, 1210), "higher", verdictOK},
		{"too noisy to tell", stored(100, 90, 110), stored(115, 114, 116), "lower", verdictUnresolved},
	} {
		if _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	spec := readSpec(t)
	a := storedResult{Workloads: map[string]storedWorkload{}}
	b := storedResult{Workloads: map[string]storedWorkload{}}
	for _, w := range spec.Workloads {
		wa := storedWorkload{EndToEnd: map[string]storedMetric{}}
		wb := storedWorkload{EndToEnd: map[string]storedMetric{}}
		for _, m := range spec.EndToEnd {
			wa.EndToEnd[m.Name] = stored(100, 99, 101)
			wb.EndToEnd[m.Name] = stored(100, 99, 101)
		}
		a.Workloads[w.Name], b.Workloads[w.Name] = wa, wb
	}
	var out bytes.Buffer
	if compare(&out, spec, a, b) {
		t.Errorf("identical results compare as worse:\n%s", out.String())
	}
	worse := b.Workloads["tcp-durable"]
	worse.EndToEnd["throughput_tps"] = stored(50, 49, 51)
	out.Reset()
	if !compare(&out, spec, a, b) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("halved throughput not reported as worse:\n%s", out.String())
	}
}

func TestPromParsing(t *testing.T) {
	text := `# HELP x y
parblockchain_orderer_blocks_cut_total{node="o1"} 42
parblockchain_block_stage_seconds_bucket{node="e1",stage="execute",le="1e-06"} 1
parblockchain_block_stage_seconds_bucket{node="e1",stage="execute",le="0.001"} 3
parblockchain_block_stage_seconds_bucket{node="e1",stage="execute",le="+Inf"} 3
parblockchain_block_stage_seconds_sum{node="e1",stage="execute"} 0.0015
parblockchain_block_stage_seconds_count{node="e1",stage="execute"} 3
`
	m := parseProm(text)
	if got := m.value("parblockchain_orderer_blocks_cut_total"); got != 42 {
		t.Errorf("counter = %v, want 42", got)
	}
	h := m.stageHists("parblockchain_block_stage_seconds")["execute"]
	if h.n != 3 || len(h.counts) != 2 || h.counts[0] != 1 || h.counts[1] != 2 {
		t.Fatalf("histogram %+v, want 3 observations in buckets 1 and 2", h)
	}
	if got := h.mean(); got != 500*time.Microsecond {
		t.Errorf("mean = %v, want 500µs", got)
	}
	if got := h.quantile(0.5); got <= time.Microsecond || got >= time.Millisecond {
		t.Errorf("p50 = %v, want inside the second bucket", got)
	}
	if got := h.sub(h).quantile(0.5); got != 0 {
		t.Errorf("p50 of an empty difference = %v, want 0", got)
	}
}

// smokeOptions runs a workload for a second, enough to exercise set-up,
// all phases, the gate and (traced) every counter, tap and probe.
func smokeOptions(t *testing.T) runOptions {
	t.Helper()
	return runOptions{seed: 1, seconds: 1, workDir: t.TempDir()}
}

// TestSmokeInProcess keeps `go test ./...` honest about API drift: it
// builds each in-process deployment through the public constructors and
// takes it through the correctness gate.
func TestSmokeInProcess(t *testing.T) {
	for _, s := range workloads {
		if s.tcp {
			continue
		}
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			o := smokeOptions(t)
			o.traced = s.crossApp // one workload takes the traced path
			res, err := runWorkload(s, o)
			if errors.Is(err, errInvalidRun) {
				t.Skip("host too busy to drive the workload on schedule: ", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, d := range res.defs() {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			if !o.traced && res.metrics["throughput_tps"] <= 0 {
				t.Errorf("throughput %v", res.metrics["throughput_tps"])
			}
		})
	}
}

func TestSmokeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts six node processes")
	}
	// The benchmark runs from the repository root; so must this test, for
	// `go build ./cmd/parnode` to resolve.
	t.Chdir("..")
	o := smokeOptions(t)
	o.traced = true
	var err error
	var took time.Duration
	if o.parnode, took, err = buildParnode(o.workDir); err != nil {
		t.Fatal(err)
	}
	o.buildS = took.Seconds()
	s, _ := findWorkload("tcp-durable")
	res, err := runWorkload(s, o)
	if errors.Is(err, errInvalidRun) {
		t.Skip("host too busy to drive the workload on schedule: ", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.metrics["persist.syncs_per_block"] <= 0 || res.metrics["persist.recover_s"] <= 0 {
		t.Errorf("failed %d, metrics %v", res.failed, res.metrics)
	}
}

// A gate failure makes runWorkload fail, and the command then exits
// non-zero without printing metrics.
func TestGateRejectsDivergence(t *testing.T) {
	s := workloads[1]
	epoch := time.Now()
	gen := newGenerator(s, 9)
	cl, _, err := setUp(s, smokeOptions(t), false, gen, epoch)
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(cl.client(), gen, epoch)
	if !d.openLoop(phaseRate, 500, 300*time.Millisecond) {
		t.Fatal("transactions lost")
	}
	d.finish()
	replicas, _, err := cl.stop()
	if err != nil {
		t.Fatal(err)
	}
	genesis := genesisKVs(s)
	if _, err := gate(replicas, genesis); err != nil {
		t.Fatalf("gate rejects a healthy run: %v", err)
	}

	// A replica whose state differs from the sequential replay.
	bad := append([]replica(nil), replicas...)
	bad[2].stateHash[0] ^= 1
	if _, err := gate(bad, genesis); err == nil {
		t.Error("gate accepts a replica with a different state hash")
	}
	// A run started from different balances than the ones replayed.
	other := append([]types.KV(nil), genesis...)
	other[0] = types.KV{Key: other[0].Key, Val: contract.EncodeBalance(1)}
	if _, err := gate(replicas, other); err == nil {
		t.Error("gate accepts a state the sequential replay does not reach")
	}
}

// The process must exit non-zero, and print no result, when it cannot
// record: here because it is not at the repository root.
func TestRefusesOutsideTheRepository(t *testing.T) {
	t.Chdir(t.TempDir())
	if code := benchMain([]string{"--workload", "independent-raw", "--seconds", "1"}); code == 0 {
		t.Error("benchmark ran in an empty directory")
	}
	if code := benchMain([]string{"--workload", "no-such-workload"}); code == 0 {
		t.Error("benchmark accepted an unknown workload")
	}
}
