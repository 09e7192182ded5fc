// Command benchmark is the repo's one benchmark: it deploys ParBlockchain
// four ways (see workloads.go), drives each deployment from one generator
// goroutine through oxii.Client.Submit, checks the committed state, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the repo root describes it; README.md explains what
// each number means.
//
//	bash benchmark/run.sh --workload contended-chain --seed 1 --seconds 26 --trace 0
//	go run ./benchmark -seed 1                  # every workload, timed then traced
//	go run ./benchmark -seed 1 -repeat 3 -out a.json
//	go run ./benchmark compare a.json b.json
//
// It touches the program only through exported constructors, functions
// and counters, and writes only under .bench_build/ in the working
// directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// exitFuncs run, last first, on every way out of the process, including
// the signals below: they kill child processes and remove temp dirs.
var exitFuncs struct {
	mu  sync.Mutex
	fns []func()
}

func atExit(fn func()) {
	exitFuncs.mu.Lock()
	defer exitFuncs.mu.Unlock()
	exitFuncs.fns = append(exitFuncs.fns, fn)
}

func exit(code int) {
	exitFuncs.mu.Lock()
	for i := len(exitFuncs.fns) - 1; i >= 0; i-- {
		exitFuncs.fns[i]()
	}
	os.Exit(code)
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		logf("benchmark: interrupted")
		exit(130)
	}()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		exit(compareMain(os.Args[2:]))
	}
	exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and end with the driver's JSON line; empty runs all four")
	seed := fs.Int64("seed", 1, "seed of the generated transaction stream, the only source of randomness")
	seconds := fs.Int("seconds", 26, "measured seconds per run, split between the rate and the peak phase")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
	traced := fs.Bool("traced", true, "without -workload: run the traced pass after the timed runs")
	repeat := fs.Int("repeat", 1, "without -workload: timed runs per workload; medians and quartiles are stored")
	out := fs.String("out", "", "without -workload: write the results as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced pass's per-transaction spans to this file (one workload) or file prefix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || fs.NArg() > 0 {
		logf("benchmark: -seconds and -repeat must be at least 1, and there are no positional arguments")
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		logf("benchmark: GOMAXPROCS is %d; a parallel execution engine is not measured on one core", runtime.GOMAXPROCS(0))
		return 2
	}
	if _, err := os.Stat(filepath.Join("internal", "oxii")); err != nil {
		logf("benchmark: run from the repository root (no internal/oxii here)")
		return 2
	}

	workDir, err := makeWorkDir()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	atExit(func() { os.RemoveAll(workDir) })
	opts := runOptions{seed: *seed, seconds: *seconds, workDir: workDir}
	// The traced pass reports the build time on every workload.
	if *workload == "" || *workload == "tcp-durable" || *trace == 1 {
		bin, took, err := buildParnode(workDir)
		if err != nil {
			logf("benchmark: %v", err)
			return 1
		}
		opts.parnode, opts.buildS = bin, took.Seconds()
	}

	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			logf("benchmark: unknown workload %q", *workload)
			return 2
		}
		opts.traced, opts.traceOut = *trace == 1, *traceOut
		res, err := runWorkload(s, opts)
		if err != nil {
			logf("benchmark: %s: %v", s.name, err)
			return 1
		}
		res.print(os.Stdout)
		fmt.Println(res.driverLine())
		return 0
	}
	return suite(opts, *repeat, *traced, *out, *traceOut)
}

// makeWorkDir creates this process's scratch directory under
// .bench_build/ in the working directory, so that nothing is written
// outside the checkout.
func makeWorkDir() (string, error) {
	root, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
