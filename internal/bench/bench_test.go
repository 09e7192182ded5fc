package bench

import (
	"testing"
	"time"
)

// short returns minimal options for harness smoke tests.
func short(system System) Options {
	return Options{
		System:   system,
		Clients:  32,
		Warmup:   200 * time.Millisecond,
		Duration: 400 * time.Millisecond,
		ExecCost: 200 * time.Microsecond,
	}
}

func TestRunOXII(t *testing.T) {
	r, err := Run(short(SystemOXII))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Committed == 0 {
		t.Fatalf("no throughput measured: %+v", r)
	}
	if r.Errors != 0 {
		t.Fatalf("operations failed: %+v", r)
	}
	if r.AvgLatency <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestRunOX(t *testing.T) {
	r, err := Run(short(SystemOX))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestRunXOV(t *testing.T) {
	r, err := Run(short(SystemXOV))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestRunOXIIStarRecordsCrossAppTraffic(t *testing.T) {
	opts := short(SystemOXIIX)
	opts.Contention = 0.5
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if r.CommitMsgs == 0 {
		t.Fatal("cross-app contention must produce COMMIT multicasts")
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	if _, err := Run(Options{System: "nope"}); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestXOVContentionProducesAbortsOrRetries(t *testing.T) {
	opts := short(SystemXOV)
	opts.Contention = 0.8
	opts.Duration = 600 * time.Millisecond
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retries == 0 {
		t.Logf("no MVCC retries observed (timing-dependent): %+v", r)
	}
}

func TestGeoPlacementRaisesLatency(t *testing.T) {
	near := short(SystemOXII)
	near.Clients = 16
	far := near
	far.MoveGroup = GroupOrderers
	far.Warmup = 800 * time.Millisecond
	far.Duration = 800 * time.Millisecond
	rNear, err := Run(near)
	if err != nil {
		t.Fatal(err)
	}
	rFar, err := Run(far)
	if err != nil {
		t.Fatal(err)
	}
	// 85ms WAN hops must dominate sub-ms LAN latency.
	if rFar.AvgLatency < rNear.AvgLatency+50*time.Millisecond {
		t.Fatalf("WAN latency not visible: near=%v far=%v", rNear.AvgLatency, rFar.AvgLatency)
	}
}

func TestCurveAndPeak(t *testing.T) {
	points, err := Curve(short(SystemOXII), []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	peak := Peak(points)
	if peak.Result.Throughput < points[0].Result.Throughput {
		t.Fatal("peak must be the max-throughput point")
	}
}

func TestGeoSweepSkipsOXForExecutorPlacements(t *testing.T) {
	base := short(SystemOXII)
	base.Duration = 300 * time.Millisecond
	series, err := GeoSweep(base, GroupExecutors,
		[]System{SystemOX, SystemOXII}, []int{8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.System == SystemOX {
			t.Fatal("OX must be skipped for executor placements")
		}
	}
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
}

func TestRunOXIISpeculative(t *testing.T) {
	opts := short(SystemOXIIX)
	opts.Contention = 0.5
	opts.AgentsPerApp = 2
	opts.Tau = 2
	opts.VoteDelay = time.Millisecond
	opts.Duration = 600 * time.Millisecond
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad speculative result: %+v", r)
	}
	if r.SpecExecuted == 0 {
		t.Fatalf("cross-app contention with delayed votes produced no speculative executions: %+v", r)
	}
	if r.SpecMisses != 0 || r.SpecReexecs != 0 {
		t.Fatalf("honest run produced speculation misses: %+v", r)
	}
	// Tau 1: the first vote is the quorum, so nothing is speculative and
	// the counters must stay untouched.
	opts.Tau = 1
	r2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SpecExecuted != 0 || r2.SpecHits != 0 {
		t.Fatalf("tau=1 run reported speculation activity: %+v", r2)
	}
}

// TestSpeculationSweepSmoke exercises the SpeculationSweep harness end to
// end (one delay, tau 1 and 2) so the sweep stays wired; CI's bench-smoke
// job runs it alongside the benchmarks.
func TestSpeculationSweepSmoke(t *testing.T) {
	base := short(SystemOXIIX)
	base.Duration = 400 * time.Millisecond
	series, err := SpeculationSweep(base, 0.5, []time.Duration{time.Millisecond}, []int{32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2 (tau 1 and 2)", len(series))
	}
	if series[0].Tau != 1 || series[1].Tau != 2 {
		t.Fatal("sweep must emit the tau=1 series before the tau=2 series per delay")
	}
	for _, s := range series {
		if len(s.Points) != 1 || s.Points[0].Result.Throughput <= 0 {
			t.Fatalf("bad sweep point: %+v", s)
		}
	}
}

func TestRunOXIIDurable(t *testing.T) {
	opts := short(SystemOXII)
	opts.DataDir = t.TempDir()
	opts.PipelineDepth = 4
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad durable result: %+v", r)
	}
	if r.WALAppends == 0 {
		t.Fatal("durable run logged no WAL records")
	}
	if r.WALSyncs == 0 || r.WALSyncs > r.WALAppends {
		t.Fatalf("group-commit accounting broken: %d syncs for %d appends",
			r.WALSyncs, r.WALAppends)
	}
	// In-memory runs must not report durability counters.
	r2, err := Run(short(SystemOXII))
	if err != nil {
		t.Fatal(err)
	}
	if r2.WALAppends != 0 || r2.WALSyncs != 0 {
		t.Fatalf("in-memory run reported WAL activity: %+v", r2)
	}
}

// TestRunOXIITiered pins the harness's tiered-backend path: a hot cap
// far below the workload's account set must force evictions and leave
// cold-resident keys, the Zipf-skewed stream must still commit
// error-free, and a memory-backend run must report no tiered counters.
func TestRunOXIITiered(t *testing.T) {
	opts := short(SystemOXII)
	opts.StateBackend = "tiered"
	opts.HotTierBytes = 1 << 10
	opts.ZipfSkew = 1.5
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Errors != 0 {
		t.Fatalf("bad tiered result: %+v", r)
	}
	if r.Evictions == 0 || r.ColdKeys == 0 {
		t.Fatalf("tiered run never spilled to the cold tier: evictions=%d coldKeys=%d",
			r.Evictions, r.ColdKeys)
	}
	r2, err := Run(short(SystemOXII))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Evictions != 0 || r2.ColdReads != 0 || r2.ColdKeys != 0 {
		t.Fatalf("in-memory run reported tiered activity: %+v", r2)
	}
}

func TestTieredSweepSmoke(t *testing.T) {
	base := short(SystemOXII)
	series, err := TieredSweep(base, 0.5, 1<<10, []int{32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Backend != "memory" || series[1].Backend != "tiered" {
		t.Fatalf("sweep must emit the memory series then the tiered series: %+v", series)
	}
	for _, s := range series {
		if len(s.Points) != 1 || s.Points[0].Result.Throughput <= 0 {
			t.Fatalf("bad sweep point: %+v", s)
		}
	}
	if series[1].Points[0].Result.Evictions == 0 {
		t.Fatal("tiered sweep point recorded no evictions")
	}
}
