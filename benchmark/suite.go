package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// storedMetric is one metric of one workload over the repeats of a suite
// run: every value, their median and their quartiles.
type storedMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type storedWorkload struct {
	OpsAttempted   int                     `json:"ops_attempted"`
	OpsFailed      int                     `json:"ops_failed"`
	LatencySamples int                     `json:"latency_samples"`
	EndToEnd       map[string]storedMetric `json:"end_to_end"`
	PerLayer       map[string]storedMetric `json:"per_layer,omitempty"`
}

// storedResult is the file a suite run writes and compare reads.
type storedResult struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Repeat  int         `json:"repeat"`
	// Claim is null: the benchmark measures, it claims no gain.
	Claim     *string                   `json:"claim"`
	Workloads map[string]storedWorkload `json:"workloads"`
}

func fold(defs []metricDef, runs []*runResult) map[string]storedMetric {
	out := make(map[string]storedMetric, len(defs))
	for _, d := range defs {
		var values []float64
		for _, r := range runs {
			values = append(values, r.metrics[d.name])
		}
		q1, q3 := quartiles(values)
		out[d.name] = storedMetric{Unit: d.unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
	}
	return out
}

// suite runs every workload: repeat timed runs each (seed, seed+1, ...),
// then one traced pass each, which goes last so that it can be cut first
// when time is short.
func suite(o runOptions, repeat int, traced bool, out, traceOut string) int {
	stored := storedResult{
		Env: readEnvironment(o.workDir), Seed: o.seed, Seconds: o.seconds, Repeat: repeat,
		Workloads: make(map[string]storedWorkload),
	}
	for _, s := range workloads {
		var runs []*runResult
		w := storedWorkload{}
		for i := 0; i < repeat; i++ {
			run := o
			run.seed = o.seed + int64(i)
			res, err := runWorkload(s, run)
			if err != nil {
				logf("benchmark: %s: %v", s.name, err)
				return 1
			}
			res.print(os.Stdout)
			runs = append(runs, res)
			w.OpsAttempted += res.attempted
			w.OpsFailed += res.failed
			w.LatencySamples += res.samples
		}
		w.EndToEnd = fold(endToEndDefs, runs)
		stored.Workloads[s.name] = w
	}
	if traced {
		for _, s := range workloads {
			run := o
			run.traced = true
			if traceOut != "" {
				run.traceOut = traceOut + "." + s.name + ".tsv"
			}
			res, err := runWorkload(s, run)
			if err != nil {
				logf("benchmark: %s (traced): %v", s.name, err)
				return 1
			}
			res.print(os.Stdout)
			w := stored.Workloads[s.name]
			w.PerLayer = fold(perLayerDefs, []*runResult{res})
			stored.Workloads[s.name] = w
		}
	}
	for _, s := range workloads {
		fmt.Printf("%s over %d run(s): median [q1, q3]\n", s.name, repeat)
		for _, d := range endToEndDefs {
			m := stored.Workloads[s.name].EndToEnd[d.name]
			fmt.Printf("  %-42s %14.4f [%.4f, %.4f] %s\n", d.name, m.Median, m.Q1, m.Q3, d.unit)
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(&stored, "", "  ")
		if err != nil {
			logf("benchmark: %v", err)
			return 1
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			logf("benchmark: %v", err)
			return 1
		}
		fmt.Printf("results written to %s\n", out)
	}
	return 0
}
