// Command perfbench is the repository benchmark: it runs one named workload
// from a seed, measures it for a fixed number of seconds, verifies every
// output it timed, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload construct --seed 1 --seconds 20 --trace 0
//	perfbench compare <base-dir> <head-dir>
//
// Workloads (see RATIONALE.md for why each exists and what it predicts):
//
//	construct     fresh graph build + short broadcast per trial, plus the §3 directed adversary
//	steps-clean   fault-free KP/Decay trials on topologies built once in set-up
//	steps-faulty  crash, sleep, link-loss and jam plans on fresh GNP graphs
//	serve         radiosd in-process behind loopback HTTP, open and closed loop
//
// serve is not a workload of BENCHMARK.json: radiosd answers about one
// synchronous request in 5,500 with a spurious 504 (a race in its job
// finish, RATIONALE.md), so its failure count differs from run to run. It
// stays runnable to reproduce that race and to measure the service by hand.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around each layer call, and the spans are written to --trace-out.
//
// The comparator reads two directories of run results (one JSON line per
// run, in files named <workload>*.jsonl) and prints a verdict per workload
// and metric against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setups is how many times a run performs its workload's set-up; setup_s is
// the median, so one slow set-up does not move it.
const setups = 5

// workers is the trial parallelism of the batch workloads. The reference
// box has two cores; one trial worker leaves the other to the Go runtime
// and the OS, which made round times several times steadier from run to
// run than two workers did (RATIONALE.md). serve uses both cores: two
// client connections against radiosd's two service workers.
const workers = 1

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	measure time.Duration
	traced  bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the counts, both metric sets (only
// one is printed), the output digest and any verification failure.
type report struct {
	attempted, failed int64
	endToEnd          map[string]metric
	perLayer          map[string]metric
	digest            string
	mismatch          error
	spans             []span
	// notes are human-readable lines printed before the result: layer
	// self times, shares and the tracing overhead.
	notes []string
}

type workload func(cfg runConfig) (*report, error)

var workloads = map[string]workload{
	"construct":    runConstruct,
	"steps-clean":  runStepsClean,
	"steps-faulty": runStepsFaulty,
	"serve":        runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: construct, steps-clean, steps-faulty or serve")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {construct|steps-clean|steps-faulty|serve}, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.traced {
		path, err := writeSpans(*traceOut, *name, *seed, rep.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	fmt.Printf("digest %s seed=%d: %s\n", *name, *seed, rep.digest)
	out := result{
		Correct:   rep.mismatch == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd,
	}
	if cfg.traced {
		out.Metrics = rep.perLayer
	}
	if rep.mismatch != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: verification failed: %v\n", *name, rep.mismatch)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.mismatch != nil {
		os.Exit(1)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM line in /proc/self/status")
}
