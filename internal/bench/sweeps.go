package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"parblockchain/internal/persist"
)

// This file implements the per-figure experiment sweeps of the paper's
// evaluation. Each sweep produces the rows/series of one figure:
//
//	Figure 5(a,b): peak throughput and latency-at-peak vs block size.
//	Figure 6(a-d): throughput-latency curves under 0/20/80/100%
//	               contention for OX, XOV, OXII, and OXII*.
//	Figure 7(a-d): throughput-latency curves with one node group moved
//	               to a far data center.

// SweepPoint is one (throughput, latency) sample of a curve.
type SweepPoint struct {
	// Clients is the closed-loop concurrency that produced the point.
	Clients int
	// Result is the full measurement.
	Result Result
}

// Curve sweeps client concurrency for fixed options, producing a
// throughput-latency curve (one line of Figures 6 and 7).
func Curve(opts Options, clientLevels []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(clientLevels))
	for _, c := range clientLevels {
		opts.Clients = c
		r, err := Run(opts)
		if err != nil {
			return points, fmt.Errorf("bench: %s at %d clients: %w", opts.System, c, err)
		}
		points = append(points, SweepPoint{Clients: c, Result: r})
	}
	return points, nil
}

// Peak returns the point with the highest throughput, i.e. "the
// throughput just below saturation" the paper states per configuration.
func Peak(points []SweepPoint) SweepPoint {
	best := SweepPoint{}
	for _, p := range points {
		if p.Result.Throughput > best.Result.Throughput {
			best = p
		}
	}
	return best
}

// FindPeak sweeps client levels and returns the saturation point.
func FindPeak(opts Options, clientLevels []int) (SweepPoint, error) {
	points, err := Curve(opts, clientLevels)
	if err != nil {
		return SweepPoint{}, err
	}
	return Peak(points), nil
}

// BlockSizeRow is one row of the Figure 5 tables: a system's peak
// throughput and latency at one block size.
type BlockSizeRow struct {
	System     System
	BlockSize  int
	Throughput float64
	Latency    time.Duration
	Clients    int
}

// BlockSizeSweep regenerates Figure 5: for each system and block size it
// finds the peak throughput and the latency at that peak.
func BlockSizeSweep(base Options, systems []System, sizes []int,
	clientLevels []int, progress io.Writer) ([]BlockSizeRow, error) {
	rows := make([]BlockSizeRow, 0, len(systems)*len(sizes))
	for _, sys := range systems {
		for _, size := range sizes {
			opts := base
			opts.System = sys
			opts.BlockTxns = size
			peak, err := FindPeak(opts, clientLevels)
			if err != nil {
				return rows, err
			}
			row := BlockSizeRow{
				System:     sys,
				BlockSize:  size,
				Throughput: peak.Result.Throughput,
				Latency:    peak.Result.AvgLatency,
				Clients:    peak.Clients,
			}
			rows = append(rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "fig5 %-5s block=%-5d peak=%8.0f tx/s lat=%8s (clients=%d)\n",
					sys, size, row.Throughput, row.Latency.Round(time.Millisecond), row.Clients)
			}
		}
	}
	return rows, nil
}

// ContentionSeries is one line of a Figure 6 plot.
type ContentionSeries struct {
	System     System
	Contention float64
	Points     []SweepPoint
}

// ContentionSweep regenerates one Figure 6 subplot: throughput-latency
// curves for every system at the given contention degree. OXII* is only
// meaningful when conflicts exist, matching the paper (no dashed line in
// Figure 6(a) beyond the solid one).
func ContentionSweep(base Options, contention float64, systems []System,
	clientLevels []int, progress io.Writer) ([]ContentionSeries, error) {
	series := make([]ContentionSeries, 0, len(systems))
	for _, sys := range systems {
		opts := base
		opts.System = sys
		opts.Contention = contention
		points, err := Curve(opts, clientLevels)
		if err != nil {
			return series, err
		}
		series = append(series, ContentionSeries{System: sys, Contention: contention, Points: points})
		if progress != nil {
			peak := Peak(points)
			fmt.Fprintf(progress, "fig6 c=%3.0f%% %-5s peak=%8.0f tx/s lat=%8s\n",
				contention*100, sys, peak.Result.Throughput,
				peak.Result.AvgLatency.Round(time.Millisecond))
		}
	}
	return series, nil
}

// GeoSeries is one line of a Figure 7 plot.
type GeoSeries struct {
	System System
	Moved  NodeGroup
	Points []SweepPoint
}

// GeoSweep regenerates one Figure 7 subplot: no-contention
// throughput-latency curves with one node group moved to the far zone.
// OX has no executor/non-executor separation, so it is skipped for those
// placements, exactly as in the paper ("since there is no such a
// separation between nodes in the OX paradigm, we do not perform these
// two experiments").
func GeoSweep(base Options, moved NodeGroup, systems []System,
	clientLevels []int, progress io.Writer) ([]GeoSeries, error) {
	series := make([]GeoSeries, 0, len(systems))
	for _, sys := range systems {
		if sys == SystemOX && (moved == GroupExecutors || moved == GroupPassive) {
			continue
		}
		opts := base
		opts.System = sys
		opts.Contention = 0
		opts.MoveGroup = moved
		if moved == GroupPassive && opts.PassiveNodes == 0 {
			opts.PassiveNodes = 2
		}
		points, err := Curve(opts, clientLevels)
		if err != nil {
			return series, err
		}
		series = append(series, GeoSeries{System: sys, Moved: moved, Points: points})
		if progress != nil {
			peak := Peak(points)
			fmt.Fprintf(progress, "fig7 move=%-13s %-5s peak=%8.0f tx/s lat=%8s\n",
				moved, sys, peak.Result.Throughput,
				peak.Result.AvgLatency.Round(time.Millisecond))
		}
	}
	return series, nil
}

// PipelineSeries is one line of a pipeline-depth plot: the
// throughput-latency curve of OXII at one executor pipeline depth.
type PipelineSeries struct {
	Depth  int
	Points []SweepPoint
}

// PipelineSweep measures OXII throughput as the executors' cross-block
// pipeline deepens, at a fixed contention level. Depth 1 is the paper's
// per-block barrier; deeper windows let block n+1 execute while block n
// is still committing, so the sweep exposes how much of the block-commit
// latency the barrier was costing.
func PipelineSweep(base Options, contention float64, depths []int,
	clientLevels []int, progress io.Writer) ([]PipelineSeries, error) {
	series := make([]PipelineSeries, 0, len(depths))
	for _, depth := range depths {
		opts := base
		opts.System = SystemOXII
		opts.Contention = contention
		opts.PipelineDepth = depth
		points, err := Curve(opts, clientLevels)
		if err != nil {
			return series, err
		}
		series = append(series, PipelineSeries{Depth: depth, Points: points})
		if progress != nil {
			peak := Peak(points)
			fmt.Fprintf(progress, "pipeline depth=%-3d peak=%8.0f tx/s lat=%8s\n",
				depth, peak.Result.Throughput,
				peak.Result.AvgLatency.Round(time.Millisecond))
		}
	}
	return series, nil
}

// SpeculationSeries is one line of a speculation plot: OXII's (cross-app
// contention) throughput-latency curve at one COMMIT vote delay and one
// tau. The peak point's SpecExecuted/SpecHits/SpecMisses/SpecReexecs
// expose how much work ran speculatively and how often it had to be
// repaired (0 misses in fault-free runs, 0 of everything at tau 1).
type SpeculationSeries struct {
	VoteDelay time.Duration
	Tau       int
	Points    []SweepPoint
}

// SpeculationSweep measures the speculative commit-wait bypass: for each
// artificial vote delay it runs the cross-app contended workload
// (SystemOXIIX, so dependency chains span applications and predecessors
// are non-local) with two agents per application — half the voters slow
// by the delay — at tau=1 and tau=2. At tau=1 the first (fast) vote is
// the quorum, so nothing waits for the slow voter; at tau=2 a dependent
// executes at the first vote and only its own vote waits for the quorum,
// so the gap between the two series is what the quorum still costs once
// execution overlaps the vote round-trip.
func SpeculationSweep(base Options, contention float64, delays []time.Duration,
	clientLevels []int, progress io.Writer) ([]SpeculationSeries, error) {
	series := make([]SpeculationSeries, 0, 2*len(delays))
	for _, delay := range delays {
		for _, tau := range []int{1, 2} {
			opts := base
			opts.System = SystemOXIIX
			opts.Contention = contention
			opts.AgentsPerApp = 2
			opts.Tau = tau
			opts.VoteDelay = delay
			points, err := Curve(opts, clientLevels)
			if err != nil {
				return series, err
			}
			series = append(series, SpeculationSeries{
				VoteDelay: delay, Tau: tau, Points: points,
			})
			if progress != nil {
				peak := Peak(points)
				fmt.Fprintf(progress, "speculation delay=%-6s tau=%d peak=%8.0f tx/s lat=%8s  spec-exec=%d hits=%d misses=%d reexec=%d\n",
					delay, tau, peak.Result.Throughput,
					peak.Result.AvgLatency.Round(time.Millisecond),
					peak.Result.SpecExecuted, peak.Result.SpecHits,
					peak.Result.SpecMisses, peak.Result.SpecReexecs)
			}
		}
	}
	return series, nil
}

// durableCurve is Curve with a fresh temp data directory per point
// (removed afterwards), so every measurement starts from genesis.
func durableCurve(opts Options, clientLevels []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(clientLevels))
	for _, c := range clientLevels {
		dir, err := os.MkdirTemp("", "parbench-durability-")
		if err != nil {
			return points, err
		}
		opts.Clients = c
		opts.DataDir = dir
		r, err := Run(opts)
		os.RemoveAll(dir)
		if err != nil {
			return points, err
		}
		points = append(points, SweepPoint{Clients: c, Result: r})
	}
	return points, nil
}

// DurabilitySeries is one line of a durability plot: OXII's
// throughput-latency curve at one pipeline depth with durability on or
// off. For durable series, WALAppends/WALSyncs of the peak point expose
// the group-commit amortization (syncs per appended block).
type DurabilitySeries struct {
	Depth   int
	Durable bool
	Fsync   persist.FsyncPolicy
	Points  []SweepPoint
}

// DurabilitySweep measures the cost of the durability subsystem on the
// finalize hot path: for each pipeline depth it runs OXII in-memory and
// with a WAL under the given fsync policy (fresh temp directory per
// point, removed afterwards). Deeper pipelines finalize more blocks per
// batch, so the group-commit policy amortizes the fsync cost the sweep
// isolates.
func DurabilitySweep(base Options, contention float64, depths []int, fsync persist.FsyncPolicy,
	clientLevels []int, progress io.Writer) ([]DurabilitySeries, error) {
	series := make([]DurabilitySeries, 0, 2*len(depths))
	for _, depth := range depths {
		for _, durable := range []bool{false, true} {
			opts := base
			opts.System = SystemOXII
			opts.Contention = contention
			opts.PipelineDepth = depth
			var points []SweepPoint
			var err error
			if durable {
				opts.FsyncPolicy = fsync
				// Every point gets a fresh directory: reusing one would
				// make the next point's executors resume at the previous
				// run's height while its fresh orderers cut from block 0.
				points, err = durableCurve(opts, clientLevels)
			} else {
				points, err = Curve(opts, clientLevels)
			}
			if err != nil {
				return series, err
			}
			s := DurabilitySeries{Depth: depth, Durable: durable, Points: points}
			if durable {
				s.Fsync = fsync
			}
			series = append(series, s)
			if progress != nil {
				peak := Peak(points)
				mode := "in-memory"
				if durable {
					mode = "durable/" + string(fsync)
				}
				line := fmt.Sprintf("durability depth=%-3d %-16s peak=%8.0f tx/s lat=%8s",
					depth, mode, peak.Result.Throughput,
					peak.Result.AvgLatency.Round(time.Millisecond))
				if durable && peak.Result.WALAppends > 0 {
					line += fmt.Sprintf("  fsyncs/block=%.2f",
						float64(peak.Result.WALSyncs)/float64(peak.Result.WALAppends))
				}
				fmt.Fprintln(progress, line)
			}
		}
	}
	return series, nil
}

// TieredSeries is one line of a tiered-state plot: OXII's
// throughput-latency curve under one state backend. Tiered series carry
// the hot cap that forced eviction; their peak point's ColdReads /
// Evictions expose how hard the cold tier worked.
type TieredSeries struct {
	Backend      string
	HotTierBytes int64
	Points       []SweepPoint
}

// TieredSweep measures the tiered (larger-than-RAM) state backend
// against the fully resident store under a Zipf-skewed hot working set:
// the same seeded workload stream runs once per backend, with the
// tiered hot cap set far below the working set so evictions and
// cold-tier reads actually happen. Committed results and state hashes
// are identical across backends — the sweep isolates the storage cost.
func TieredSweep(base Options, contention float64, hotBytes int64,
	clientLevels []int, progress io.Writer) ([]TieredSeries, error) {
	if base.ZipfSkew == 0 {
		base.ZipfSkew = 1.5
	}
	if base.HotAccounts == 0 {
		base.HotAccounts = 4096
	}
	base.System = SystemOXII
	base.Contention = contention
	series := make([]TieredSeries, 0, 2)
	for _, backend := range []string{"memory", "tiered"} {
		opts := base
		opts.StateBackend = backend
		opts.HotTierBytes = 0 // only the tiered backend takes a cap
		if backend == "tiered" {
			opts.HotTierBytes = hotBytes
		}
		points, err := Curve(opts, clientLevels)
		if err != nil {
			return series, err
		}
		series = append(series, TieredSeries{
			Backend: backend, HotTierBytes: opts.HotTierBytes, Points: points,
		})
		if progress != nil {
			peak := Peak(points)
			line := fmt.Sprintf("tiered %-7s peak=%8.0f tx/s lat=%8s",
				backend, peak.Result.Throughput,
				peak.Result.AvgLatency.Round(time.Millisecond))
			if backend == "tiered" {
				line += fmt.Sprintf("  cold-reads=%d evictions=%d",
					peak.Result.ColdReads, peak.Result.Evictions)
			}
			fmt.Fprintln(progress, line)
		}
	}
	return series, nil
}
