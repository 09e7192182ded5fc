// Command parbench regenerates every table and figure of the
// ParBlockchain paper's evaluation (Section V) on the in-process
// deployment:
//
//	parbench -fig 5a        block-size sweep, throughput (Figure 5a)
//	parbench -fig 5b        block-size sweep, latency (Figure 5b)
//	parbench -fig 6a..6d    contention sweeps (Figure 6, 0/20/80/100%)
//	parbench -fig 7a..7d    geo-placement sweeps (Figure 7)
//	parbench -fig ablations A4 (consensus plug comparison)
//	parbench -fig durability  WAL fsync cost on the finalize hot path
//	parbench -fig speculation speculative commit-wait bypass vs vote delay
//	parbench -fig all       everything
//
// Use -quick for a fast smoke pass with reduced sweep ranges, -dur and
// -warmup to size the steady-state window, and -csv to emit raw points.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parblockchain/internal/bench"
	"parblockchain/internal/node"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "parbench:", err)
		os.Exit(1)
	}
}

type config struct {
	fig   string
	quick bool
	csv   bool
	// opts holds what every point of every figure shares.
	opts bench.Options
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.fig, "fig", "all", "figure to regenerate: 5a 5b 6a 6b 6c 6d 7a 7b 7c 7d ablations durability speculation all")
	flag.BoolVar(&cfg.quick, "quick", false, "reduced sweep ranges for a fast pass")
	flag.BoolVar(&cfg.csv, "csv", false, "emit raw CSV rows instead of tables")
	flag.DurationVar(&cfg.opts.Duration, "dur", 2*time.Second, "steady-state measurement window per point")
	flag.DurationVar(&cfg.opts.Warmup, "warmup", 500*time.Millisecond, "warm-up before measurement")
	flag.DurationVar(&cfg.opts.ExecCost, "execcost", time.Millisecond, "modeled contract service time")
	flag.BoolVar(&cfg.opts.Crypto, "crypto", false, "enable ed25519 signing end to end")
	flag.Parse()

	figs := map[string]func(config) error{
		"5a": fig5, "5b": fig5,
		"6a":          func(c config) error { return fig6(c, 0.0) },
		"6b":          func(c config) error { return fig6(c, 0.2) },
		"6c":          func(c config) error { return fig6(c, 0.8) },
		"6d":          func(c config) error { return fig6(c, 1.0) },
		"7a":          func(c config) error { return fig7(c, bench.GroupClients) },
		"7b":          func(c config) error { return fig7(c, bench.GroupOrderers) },
		"7c":          func(c config) error { return fig7(c, bench.GroupExecutors) },
		"7d":          func(c config) error { return fig7(c, bench.GroupPassive) },
		"ablations":   ablations,
		"durability":  figDurability,
		"speculation": figSpeculation,
	}
	order := []string{"5a", "6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d", "ablations", "durability", "speculation"}

	switch cfg.fig {
	case "all":
		for _, name := range order {
			fmt.Printf("\n===== Figure %s =====\n", name)
			if err := figs[name](cfg); err != nil {
				return err
			}
		}
		return nil
	case "5b":
		return fig5(cfg) // 5a and 5b come from the same sweep
	default:
		f, ok := figs[cfg.fig]
		if !ok {
			return fmt.Errorf("unknown figure %q", cfg.fig)
		}
		return f(cfg)
	}
}

func (c config) clientLevels() []int {
	if c.quick {
		return []int{100, 400, 1000}
	}
	return []int{50, 100, 200, 400, 800, 1600}
}

// peakLevels is the coarser sweep used where only the saturation point is
// reported (Figure 5 runs 24 system/size combinations).
func (c config) peakLevels() []int {
	if c.quick {
		return []int{200, 1000}
	}
	return []int{200, 800, 1600}
}

// fig5 regenerates Figure 5(a,b): peak throughput and latency-at-peak as
// the block size grows from 10 to 1000 transactions.
func fig5(c config) error {
	sizes := []int{10, 50, 100, 200, 400, 600, 800, 1000}
	if c.quick {
		sizes = []int{10, 50, 100, 200, 400, 1000}
	}
	systems := []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII}
	rows, err := bench.BlockSizeSweep(c.opts, systems, sizes, c.peakLevels(), os.Stderr)
	if err != nil {
		return err
	}
	if c.csv {
		fmt.Println("system,block_size,throughput_tps,latency_ms,clients")
		for _, r := range rows {
			fmt.Printf("%s,%d,%.0f,%.1f,%d\n", r.System, r.BlockSize, r.Throughput,
				float64(r.Latency.Microseconds())/1000, r.Clients)
		}
		return nil
	}
	fmt.Println("Figure 5(a,b): peak throughput and latency vs block size")
	fmt.Printf("%-6s %10s %14s %12s %8s\n", "system", "block", "tput [tx/s]", "latency", "clients")
	for _, r := range rows {
		fmt.Printf("%-6s %10d %14.0f %12s %8d\n",
			r.System, r.BlockSize, r.Throughput, r.Latency.Round(time.Millisecond), r.Clients)
	}
	return nil
}

// fig6 regenerates one Figure 6 subplot: throughput-latency curves at a
// contention degree.
func fig6(c config, contention float64) error {
	systems := []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII}
	if contention > 0 {
		systems = append(systems, bench.SystemOXIIX)
	}
	series, err := bench.ContentionSweep(c.opts, contention, systems, c.clientLevels(), os.Stderr)
	if err != nil {
		return err
	}
	printSeries(c, fmt.Sprintf("Figure 6 @ %.0f%% contention", contention*100), seriesOf(series))
	return nil
}

// fig7 regenerates one Figure 7 subplot: no-contention curves with one
// node group in a far data center.
func fig7(c config, moved bench.NodeGroup) error {
	systems := []bench.System{bench.SystemOX, bench.SystemXOV, bench.SystemOXII}
	series, err := bench.GeoSweep(c.opts, moved, systems, c.clientLevels(), os.Stderr)
	if err != nil {
		return err
	}
	rows := make([]namedSeries, 0, len(series))
	for _, s := range series {
		rows = append(rows, namedSeries{name: string(s.System), points: s.Points})
	}
	printSeries(c, fmt.Sprintf("Figure 7: %s moved to far zone", moved), rows)
	return nil
}

// ablations runs the design-choice experiments listed under README.md,
// "Substitutions".
func ablations(c config) error {
	levels := c.clientLevels()
	clients := levels[len(levels)-1]
	fmt.Println("A4: consensus plug comparison, no contention")
	for _, kind := range []node.ConsensusKind{node.ConsensusKafka, node.ConsensusPBFT, node.ConsensusRaft} {
		opts := c.opts
		opts.System = bench.SystemOXII
		opts.Consensus = kind
		opts.Clients = clients
		if kind == node.ConsensusPBFT {
			opts.Orderers = 4
		}
		r, err := bench.Run(opts)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6s  tput=%8.0f tx/s  avg=%8s\n",
			kind, r.Throughput, r.AvgLatency.Round(time.Millisecond))
	}
	return nil
}

type namedSeries struct {
	name   string
	points []bench.SweepPoint
}

func seriesOf(in []bench.ContentionSeries) []namedSeries {
	out := make([]namedSeries, 0, len(in))
	for _, s := range in {
		out = append(out, namedSeries{name: string(s.System), points: s.Points})
	}
	return out
}

func printSeries(c config, title string, series []namedSeries) {
	if c.csv {
		fmt.Println("series,clients,throughput_tps,avg_latency_ms,p95_ms,aborted")
		for _, s := range series {
			for _, p := range s.points {
				fmt.Printf("%s,%d,%.0f,%.1f,%.1f,%d\n", s.name, p.Clients,
					p.Result.Throughput,
					float64(p.Result.AvgLatency.Microseconds())/1000,
					float64(p.Result.P95.Microseconds())/1000,
					p.Result.Aborted)
			}
		}
		return
	}
	fmt.Println(title)
	for _, s := range series {
		fmt.Printf("  %s\n", s.name)
		for _, p := range s.points {
			fmt.Printf("    clients=%-5d tput=%8.0f tx/s  avg=%8s  p95=%8s  aborted=%d\n",
				p.Clients, p.Result.Throughput,
				p.Result.AvgLatency.Round(time.Millisecond),
				p.Result.P95.Round(time.Millisecond), p.Result.Aborted)
		}
	}
}

// figSpeculation measures the speculative commit-wait bypass: cross-app
// contended OXII with two agents per application, half the voters'
// COMMITs delayed, tau 1 vs tau 2 at each delay. At tau 1 the first
// (fast) vote is the quorum; at tau 2 a dependent transaction still
// executes at the first vote, and only its vote waits for the slow one.
func figSpeculation(c config) error {
	delays := []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond}
	levels := c.clientLevels()
	if c.quick {
		delays = []time.Duration{0, 2 * time.Millisecond}
	}
	series, err := bench.SpeculationSweep(c.opts, 0.2, delays, levels, os.Stderr)
	if err != nil {
		return err
	}
	rows := make([]namedSeries, 0, len(series))
	for _, s := range series {
		rows = append(rows, namedSeries{
			name:   fmt.Sprintf("delay=%s/tau=%d", s.VoteDelay, s.Tau),
			points: s.Points,
		})
	}
	printSeries(c, "Speculation: commit-wait bypass under delayed votes @ 20% cross-app contention", rows)
	return nil
}

// figDurability measures the durability subsystem's cost on the
// finalize hot path: OXII in memory vs WAL-backed at the deployed
// execution window, where each finalize batch shares one fsync.
func figDurability(c config) error {
	series, err := bench.DurabilitySweep(c.opts, 0.2, c.clientLevels(), os.Stderr)
	if err != nil {
		return err
	}
	rows := make([]namedSeries, 0, len(series))
	for _, s := range series {
		name := "in-memory"
		if s.Durable {
			name = "wal"
		}
		rows = append(rows, namedSeries{name: name, points: s.Points})
	}
	printSeries(c, "Durability: WAL fsync cost on the finalize path @ 20% contention", rows)
	return nil
}
