package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans nest: a phase
// (one set-up or one measured round) holds trials or requests, which hold
// the layer calls (graph.build, graph.compile, lowerbound.build,
// lowerbound.verify, core.setup, radio.run, loadgen.encode, ...).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a phase span
	Phase  int    `json:"phase"`  // id of the enclosing phase span
	Trial  int    `json:"trial"`  // trial or request index; -1 outside one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced run pays one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, trial int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	phase := id
	if parent >= 0 {
		phase = t.spans[parent].Phase
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Phase: phase, Trial: trial, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus its children's
// durations. A span still open (End < 0) counts as empty.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerTimes is the per-phase-kind breakdown of a traced run: self time in
// seconds per span name, summed over every phase of that kind.
type layerTimes map[string]map[string]float64

// aggregate sums self times by phase kind ("setup", "round", ...) and span
// name. Phase spans themselves are left out: their self time is the
// scheduling gap between trials, reported separately as idle.
func aggregate(spans []span) layerTimes {
	self := selfTimes(spans)
	out := layerTimes{}
	for i, s := range spans {
		if s.Parent < 0 || s.End < 0 {
			continue
		}
		kind := spans[s.Phase].Name
		if out[kind] == nil {
			out[kind] = map[string]float64{}
		}
		out[kind][s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// perUnit returns a layer's self time per set-up plus per traced round:
// the cost of one set-up and one pass over the fixed operation set, which
// is independent of how many rounds fit in the measurement time.
func (lt layerTimes) perUnit(name string, nSetups, nRounds int) float64 {
	v := 0.0
	if nSetups > 0 {
		v += lt["setup"][name] / float64(nSetups)
	}
	if nRounds > 0 {
		v += lt["round"][name] / float64(nRounds)
	}
	return v
}

// shareLines prints each span name's self time and its share of the
// traced rounds' trial-level time, the proof of what a workload exercises.
func shareLines(lt layerTimes, trialSpan string, nRounds int) []string {
	rounds := lt["round"]
	total := 0.0
	for _, v := range rounds {
		total += v
	}
	names := make([]string, 0, len(rounds))
	for name := range rounds {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("layer self time per traced round (%d rounds), share of %s-level time:", nRounds, trialSpan)}
	layers := map[string]float64{}
	for _, name := range names {
		v := rounds[name]
		layers[strings.SplitN(name, ".", 2)[0]] += v
		lines = append(lines, fmt.Sprintf("  %-18s %10.4f s %6.1f%%", name, v/float64(max(nRounds, 1)), 100*v/total))
	}
	keys := make([]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("  layer %-12s share %6.1f%%", k, 100*layers[k]/total))
	}
	return lines
}

// writeSpans writes the spans as one JSON document per run.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
