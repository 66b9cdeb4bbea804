package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

func run(t *testing.T, g *graph.Graph, p *Protocol, seed uint64) *radio.Result {
	t.Helper()
	res, err := radio.Run(g, p, radio.Config{Seed: seed}, radio.Options{})
	if err != nil {
		t.Fatalf("%s did not complete: %v", p.Name(), err)
	}
	return res
}

func TestCompletesOnBasicTopologies(t *testing.T) {
	topos := map[string]*graph.Graph{
		"path":   graph.Path(64),
		"star":   graph.Star(64),
		"clique": graph.Clique(64),
		"grid":   graph.Grid(8, 8),
	}
	cl, err := graph.UniformCompleteLayered(128, 16)
	if err != nil {
		t.Fatal(err)
	}
	topos["layered"] = cl
	for name, g := range topos {
		res := run(t, g, New(), 1)
		if !res.Completed {
			t.Fatalf("%s: not completed", name)
		}
	}
}

func TestCompletesOnTwoNodes(t *testing.T) {
	res := run(t, graph.Path(2), New(), 7)
	if res.BroadcastTime < 1 {
		t.Fatalf("BroadcastTime = %d", res.BroadcastTime)
	}
}

func TestCompletesOnRandomLayered(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 3; trial++ {
		g, err := graph.RandomLayered(256, 32, 0.1, src)
		if err != nil {
			t.Fatal(err)
		}
		if !run(t, g, New(), uint64(trial)).Completed {
			t.Fatalf("trial %d incomplete", trial)
		}
	}
}

func TestCompletesOnDirectedLayered(t *testing.T) {
	// Section 2's analysis is for directed graphs; the algorithm must work
	// there too.
	src := rng.New(4)
	g, err := graph.DirectedLayered(200, 20, 0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	if !run(t, g, New(), 5).Completed {
		t.Fatal("directed run incomplete")
	}
}

func TestKnownRadiusVariant(t *testing.T) {
	g, err := graph.UniformCompleteLayered(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewWithParams(Params{KnownRadius: 8})
	if !strings.Contains(p.Name(), "known") {
		t.Fatalf("Name = %q", p.Name())
	}
	if !run(t, g, p, 6).Completed {
		t.Fatal("known-radius run incomplete")
	}
}

func TestPaperExactConstantsComplete(t *testing.T) {
	// With the paper's constants every simulable phase takes the BGI
	// fallback; the run must still complete.
	g := graph.Path(64)
	if !run(t, g, NewPaperExact(), 7).Completed {
		t.Fatal("paper-exact run incomplete")
	}
}

func TestAblatedVariantRunsOnEasyTopology(t *testing.T) {
	p := NewWithParams(Params{DisableUniversalStep: true})
	if p.Name() != "kp-ablated" {
		t.Fatalf("Name = %q", p.Name())
	}
	if !run(t, graph.Path(32), p, 8).Completed {
		t.Fatal("ablated run incomplete on path")
	}
}

func TestScheduleLayout(t *testing.T) {
	s, err := buildSchedule(1023, Params{StageFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.rPow != 1024 || s.logR != 10 {
		t.Fatalf("rPow=%d logR=%d", s.rPow, s.logR)
	}
	if len(s.phases) != 10 {
		t.Fatalf("phases = %d, want 10 (doubling 2..1024)", len(s.phases))
	}
	total := 0
	for i, ph := range s.phases {
		if ph.d != 1<<(i+1) {
			t.Fatalf("phase %d: d=%d", i, ph.d)
		}
		if ph.fallback {
			t.Fatalf("phase %d: unexpected fallback with FallbackFactor=0", i)
		}
		wantLadder := 10 - (i + 1)
		if ph.ladderMax != wantLadder {
			t.Fatalf("phase %d: ladderMax=%d want %d", i, ph.ladderMax, wantLadder)
		}
		if ph.stageLen != wantLadder+2 {
			t.Fatalf("phase %d: stageLen=%d want %d", i, ph.stageLen, wantLadder+2)
		}
		if ph.numStages != 4*ph.d {
			t.Fatalf("phase %d: numStages=%d", i, ph.numStages)
		}
		if ph.length != 1+ph.stageLen*ph.numStages {
			t.Fatalf("phase %d: length=%d", i, ph.length)
		}
		if s.starts[i] != total {
			t.Fatalf("phase %d: start=%d want %d", i, s.starts[i], total)
		}
		total += ph.length
	}
	if s.cycle != total {
		t.Fatalf("cycle=%d want %d", s.cycle, total)
	}
}

func TestScheduleFallbackSelection(t *testing.T) {
	s, err := buildSchedule(1023, Params{StageFactor: 4, FallbackFactor: PaperFallbackFactor})
	if err != nil {
		t.Fatal(err)
	}
	// 32·1024^{2/3} = 32·~101.6 ≈ 3251 > 1024: every phase falls back.
	for i, ph := range s.phases {
		if !ph.fallback {
			t.Fatalf("phase %d (d=%d) did not fall back", i, ph.d)
		}
		if ph.stageLen != s.logR+1 {
			t.Fatalf("fallback stageLen = %d", ph.stageLen)
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	s, err := buildSchedule(255, Params{StageFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Walk two full cycles step by step and verify offsets are consistent.
	wantPhase, wantPos := 0, 0
	for t0 := 1; t0 <= 2*s.cycle; t0++ {
		ph, pos := s.locate(t0)
		if ph != &s.phases[wantPhase] || pos != wantPos {
			t.Fatalf("locate(%d) = phase d=%d pos=%d, want phase %d pos %d",
				t0, ph.d, pos, wantPhase, wantPos)
		}
		wantPos++
		if wantPos == s.phases[wantPhase].length {
			wantPos = 0
			wantPhase = (wantPhase + 1) % len(s.phases)
		}
	}
}

func TestBuildScheduleRejectsBadBound(t *testing.T) {
	if _, err := buildSchedule(0, Params{StageFactor: 1}); err == nil {
		t.Fatal("label bound 0 accepted")
	}
}

func TestOnlySourceTransmitsInSourceStep(t *testing.T) {
	// Trace a run on a clique and assert step 1 (the phase's source step)
	// has the source as the only transmitter.
	var step1tx []int
	trace := func(step int, tx []int, rx []radio.Message) {
		if step == 1 {
			step1tx = append([]int(nil), tx...)
		}
	}
	g := graph.Clique(16)
	_, err := radio.Run(g, New(), radio.Config{Seed: 11}, radio.Options{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if len(step1tx) != 1 || step1tx[0] != 0 {
		t.Fatalf("step-1 transmitters = %v, want [0]", step1tx)
	}
}

func TestSeedReplay(t *testing.T) {
	g := graph.StarChain(4, 8)
	a := run(t, g, New(), 99)
	b := run(t, g, New(), 99)
	if a.BroadcastTime != b.BroadcastTime || a.Transmissions != b.Transmissions {
		t.Fatal("same seed produced different runs")
	}
}

func TestUniversalStepHelpsOnHighInDegreeFronts(t *testing.T) {
	// Statistical ablation check (full version is experiment E8): on a
	// StarChain with wide fan-in, the median broadcast time with the
	// universal step must not exceed the ablated variant's. The ablated
	// variant's ladder stops at probability D/r, too high for fronts of
	// w >> r/D informed in-neighbors, so it relies on luck.
	g := graph.StarChain(3, 96) // n = 292, ladders truncated aggressively
	const trials = 7
	med := func(p *Protocol) int {
		times := make([]int, 0, trials)
		for s := 0; s < trials; s++ {
			res, err := radio.Run(g, p, radio.Config{Seed: uint64(1000 + s)},
				radio.Options{MaxSteps: 600000})
			if err != nil {
				times = append(times, 600000) // censored at budget
				continue
			}
			times = append(times, res.BroadcastTime)
		}
		for i := 1; i < len(times); i++ {
			for k := i; k > 0 && times[k] < times[k-1]; k-- {
				times[k], times[k-1] = times[k-1], times[k]
			}
		}
		return times[trials/2]
	}
	full := med(NewWithParams(Params{KnownRadius: 8}))
	ablated := med(NewWithParams(Params{KnownRadius: 8, DisableUniversalStep: true}))
	if full > ablated*2 {
		t.Fatalf("universal step made things worse: full=%d ablated=%d", full, ablated)
	}
	t.Logf("median broadcast time: full=%d ablated=%d", full, ablated)
}

// TestValidateExposesParameterErrors covers the error path NewNode can only
// panic on: Validate reports invalid configurations before any node is
// built, and a valid configuration validates clean.
func TestValidateExposesParameterErrors(t *testing.T) {
	bad := New()
	err := bad.Validate(radio.Config{N: 0}) // label bound -1
	if err == nil || !strings.Contains(err.Error(), "label bound") {
		t.Fatalf("Validate on an invalid config = %v, want label-bound error", err)
	}
	// The error is sticky: the same protocol value keeps reporting it.
	if err2 := bad.Validate(radio.Config{N: 64}); err2 == nil {
		t.Fatal("Validate forgot the schedule error on a second call")
	}

	// A non-finite fallback factor is rejected before it reaches the
	// schedule memo, where a NaN key could never be found or evicted.
	scheduleMemo.Lock()
	before := len(scheduleMemo.m)
	scheduleMemo.Unlock()
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := NewWithParams(Params{FallbackFactor: c}).Validate(radio.Config{N: 64})
		if err == nil || !strings.Contains(err.Error(), "fallback factor") {
			t.Fatalf("Validate with FallbackFactor %v = %v, want fallback-factor error", c, err)
		}
	}
	scheduleMemo.Lock()
	after := len(scheduleMemo.m)
	scheduleMemo.Unlock()
	if after != before {
		t.Fatalf("rejected parameters changed the memo size %d -> %d", before, after)
	}

	good := New()
	if err := good.Validate(radio.Config{N: 64}); err != nil {
		t.Fatalf("Validate on a valid config = %v", err)
	}
	if prog := good.NewNode(1, radio.Config{N: 64}); prog == nil {
		t.Fatal("NewNode returned nil after successful Validate")
	}
}

// TestScheduleMemoSharedAndBounded pins the schedule memo: fresh protocol
// values with the same (label bound, Params) share one schedule, and any
// number of distinct label bounds leaves the memo at its fixed capacity.
func TestScheduleMemoSharedAndBounded(t *testing.T) {
	a, b := New(), New()
	cfg := radio.Config{N: 512}
	if err := a.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if a.sched != b.sched {
		t.Fatal("two fresh protocols with equal parameters built separate schedules")
	}
	if c := NewWithParams(Params{DisableUniversalStep: true}); c.Validate(cfg) != nil || c.sched == a.sched {
		t.Fatal("different Params shared a schedule")
	}
	params := Params{StageFactor: 1, KnownRadius: 2}
	for bound := 1; bound <= 3*scheduleMemoCap; bound++ {
		if _, err := memoSchedule(bound, params); err != nil {
			t.Fatal(err)
		}
	}
	scheduleMemo.Lock()
	size, order := len(scheduleMemo.m), len(scheduleMemo.order)
	scheduleMemo.Unlock()
	if size > scheduleMemoCap || size != order {
		t.Fatalf("memo holds %d schedules (%d in order), capacity %d", size, order, scheduleMemoCap)
	}
	// The newest entry is still shared.
	s1, _ := memoSchedule(3*scheduleMemoCap, params)
	s2, _ := memoSchedule(3*scheduleMemoCap, params)
	if s1 != s2 {
		t.Fatal("memo did not share its newest entry")
	}
}

// TestScheduleMemoConcurrent has goroutines race to build and read the same
// memo entries, the shape of parallel trials each making a fresh Protocol;
// run under -race it checks the memo's locking, and every goroutine must
// end up with the one shared schedule per key.
func TestScheduleMemoConcurrent(t *testing.T) {
	const workers, bounds = 8, 4
	got := make([][bounds]*schedule, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < bounds; i++ {
				p := NewWithParams(Params{StageFactor: 3})
				if err := p.Validate(radio.Config{N: 100 + i}); err != nil {
					t.Error(err)
					return
				}
				got[w][i] = p.sched
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d saw different schedules than worker 0", w)
		}
	}
}
