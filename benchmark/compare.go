package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads:
// metric names, units, directions and bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges whether b is worse than a by more than the bound. The
// spread is the wider of the two sides' interquartile ranges as a share
// of their medians; when it exceeds the bound the runs cannot tell a
// regression of that size from noise, and the metric is unresolved
// rather than unchanged.
func verdict(a, b storedMetric, better string, bound float64) (worse, spread float64, v string) {
	if a.Median == 0 {
		return 0, 0, verdictUnresolved
	}
	worse = (b.Median - a.Median) / math.Abs(a.Median)
	if better == "higher" {
		worse = -worse
	}
	spread = (a.Q3 - a.Q1) / math.Abs(a.Median)
	if b.Median != 0 {
		spread = math.Max(spread, (b.Q3-b.Q1)/math.Abs(b.Median))
	}
	switch {
	case spread > bound:
		return worse, spread, verdictUnresolved
	case worse > bound:
		return worse, spread, verdictWorse
	}
	return worse, spread, verdictOK
}

// compareMain implements `benchmark compare a.json b.json`: per metric
// and workload it prints both medians, how much worse b is, the spread,
// the bound and the verdict. It exits 1 if any metric is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		logf("usage: benchmark compare [-spec BENCHMARK.json] a.json b.json")
		return 2
	}
	var spec benchmarkSpec
	var a, b storedResult
	for path, into := range map[string]any{*specPath: &spec, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, into); err != nil {
			logf("compare: %v", err)
			return 2
		}
	}
	if compare(os.Stdout, spec, a, b) {
		return 1
	}
	return 0
}

// compare prints the table and reports whether any metric got worse.
func compare(w io.Writer, spec benchmarkSpec, a, b storedResult) (anyWorse bool) {
	fmt.Fprintf(w, "a: commit %s seed %d, %d run(s) of %ds\nb: commit %s seed %d, %d run(s) of %ds\n",
		a.Env.Commit, a.Seed, a.Repeat, a.Seconds, b.Env.Commit, b.Seed, b.Repeat, b.Seconds)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		wa, okA := a.Workloads[wl.Name]
		wb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			worse, spread, v := verdict(wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], m.Better, m.Bound)
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, wa.EndToEnd[m.Name].Median, wb.EndToEnd[m.Name].Median,
				100*worse, 100*spread, 100*m.Bound, v)
			anyWorse = anyWorse || v == verdictWorse
		}
		if wb.OpsFailed > wa.OpsFailed {
			fmt.Fprintf(w, "%-16s %-16s %12d %12d %44s\n", wl.Name, "ops_failed", wa.OpsFailed, wb.OpsFailed, verdictWorse)
			anyWorse = true
		}
	}
	return anyWorse
}
