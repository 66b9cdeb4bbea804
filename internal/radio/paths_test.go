package radio_test

import (
	"errors"
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

// TestCoinProtocolsReachBitset pins that the bit-parallel tally serves the
// paper's own protocols: KP and Decay run on the coin path with nil
// payloads, so on a dense complete layered network (the steps-clean
// benchmark's "complete n=1024 D=4") the kernel must carry real steps.
func TestCoinProtocolsReachBitset(t *testing.T) {
	g, err := graph.UniformCompleteLayered(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []radio.Protocol{core.New(), decay.New()} {
		r := radio.NewRunner()
		if _, err := r.Run(g, p, radio.Config{Seed: 1}, radio.Options{}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		paths := radio.TallyPathSteps(r)
		if paths.Bitset < 1 || paths.Faulty != 0 {
			t.Errorf("%s: tally paths %+v, want >= 1 bitset step and no faulty step", p.Name(), paths)
		}
	}
}

// TestNodeOnlyPlansSkipFaultyTally pins the fault dispatch: crash and sleep
// plans run every step through the fault-free tallies (the bitset kernel
// included, on this bitmap-dense graph), while a plan with link loss runs
// every step through tallyFaulty.
func TestNodeOnlyPlansSkipFaultyTally(t *testing.T) {
	g := graph.GNPConnected(256, 0.15, rng.New(3))
	plans := []struct {
		name     string
		plan     *fault.Plan
		nodeOnly bool
	}{
		{"crash", &fault.Plan{Seed: 1, CrashFrac: 0.2, CrashWindow: 256}, true},
		{"sleep", &fault.Plan{Seed: 2, SleepFrac: 0.3, SleepPeriod: 8, SleepAwake: 4}, true},
		{"crash+sleep", &fault.Plan{Seed: 3, CrashFrac: 0.1, CrashWindow: 64,
			SleepFrac: 0.3, SleepPeriod: 6, SleepAwake: 3}, true},
		{"loss", &fault.Plan{Seed: 4, LinkLoss: 0.2}, false},
		{"crash+loss", &fault.Plan{Seed: 5, CrashFrac: 0.2, CrashWindow: 256, LinkLoss: 0.1}, false},
	}
	protocols := []radio.Protocol{decay.New(), core.New(), det.SelectAndSend{}}
	for _, pl := range plans {
		for _, p := range protocols {
			r := radio.NewRunner()
			_, err := r.Run(g, p, radio.Config{Seed: 7}, radio.Options{MaxSteps: 3000, Fault: pl.plan})
			if err != nil && !errors.Is(err, radio.ErrStepLimit) {
				t.Fatalf("%s/%s: %v", pl.name, p.Name(), err)
			}
			paths, steps := radio.TallyPathSteps(r), r.Counters().Steps
			if paths.Sparse+paths.Dense+paths.Bitset+paths.Faulty != steps {
				t.Fatalf("%s/%s: tally paths %+v do not add up to %d steps", pl.name, p.Name(), paths, steps)
			}
			switch {
			case pl.nodeOnly && paths.Faulty != 0:
				t.Errorf("%s/%s: %d of %d steps in tallyFaulty, want none", pl.name, p.Name(), paths.Faulty, steps)
			case !pl.nodeOnly && paths.Faulty != steps:
				t.Errorf("%s/%s: %d of %d steps in tallyFaulty, want all", pl.name, p.Name(), paths.Faulty, steps)
			case pl.nodeOnly && p.Name() == "bgi-decay" && paths.Bitset == 0:
				t.Errorf("%s/%s: no bitset step under a node-only plan: %+v", pl.name, p.Name(), paths)
			}
		}
	}
}
