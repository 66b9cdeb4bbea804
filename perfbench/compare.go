package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// compareMain implements `perfbench compare [-bench BENCHMARK.json] BASE HEAD`.
// BASE and HEAD are directories of run results: files named
// <workload>.jsonl, one result line per run, runs of the two sides paired
// in file order. It prints, per workload row and metric, each side's
// median and quartiles and a verdict:
//
//	gain        at least 10 pairs, the head won at least 9 in 10 of them,
//	            and the medians differ by more than the base's
//	            interquartile range
//	regression  the head's median is worse than the base's by more than the bound
//	unresolved  a side's spread (IQR / median) exceeds the bound
//	within      none of the above
//
// It exits 1 when any metric regressed, 2 on unusable input.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] BASE-DIR HEAD-DIR")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *benchPath, err)
		return 2
	}
	metrics := map[string]metricSpec{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = m
	}
	base, err := loadRuns(fs.Arg(0))
	if err == nil {
		var head map[string][]result
		head, err = loadRuns(fs.Arg(1))
		if err == nil {
			return printComparison(os.Stdout, metrics, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

// loadRuns reads every <workload>.jsonl in dir.
func loadRuns(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.jsonl run files", dir)
	}
	out := map[string][]result{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		w := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out[w] = append(out[w], r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return out, nil
}

func printComparison(w *os.File, metrics map[string]metricSpec, base, head map[string][]result) int {
	status := 0
	var workloads []string
	for wl := range base {
		if _, ok := head[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		bs, hs := base[wl], head[wl]
		fmt.Fprintf(w, "== %s (%d base runs, %d head runs)\n", wl, len(bs), len(hs))
		fmt.Fprintf(w, "%-30s %-32s %-32s %8s %5s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "pairs", "verdict")
		var names []string
		for name := range bs[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			spec, ok := metrics[name]
			if !ok {
				continue
			}
			bv, hv := values(bs, name), values(hs, name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict(spec, bv, hv)
			if v == "regression" {
				status = 1
			}
			bq, hq := quartiles(bv), quartiles(hv)
			change := math.NaN()
			if bq[1] != 0 {
				change = 100 * (hq[1] - bq[1]) / math.Abs(bq[1])
			}
			fmt.Fprintf(w, "%-30s %-32s %-32s %+7.1f%% %5d  %s\n", name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", bq[1], bq[0], bq[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", hq[1], hq[0], hq[2]), change, min(len(bv), len(hv)), v)
		}
	}
	return status
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// minGainPairs is the fewest pairs a gain can be claimed on.
const minGainPairs = 10

// verdict applies the comparison rule to one metric. Per-layer metrics
// have no bound; they get a gain/within verdict only.
func verdict(spec metricSpec, base, head []float64) string {
	sign := 1.0 // +1 when lower is better
	if spec.Better == "higher" {
		sign = -1
	}
	bq, hq := quartiles(base), quartiles(head)
	pairs, wins := min(len(base), len(head)), 0
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	gap := sign * (bq[1] - hq[1]) // > 0 when the head is better
	if pairs >= minGainPairs && wins*10 >= pairs*9 && gap > bq[2]-bq[0] {
		return "gain"
	}
	if spec.Bound == 0 {
		return "within"
	}
	if -gap > spec.Bound*math.Abs(bq[1]) {
		return "regression"
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if spread(bq) > spec.Bound || spread(hq) > spec.Bound {
		return "unresolved"
	}
	return "within"
}
