package decay

import (
	"testing"

	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
)

func TestFirstStageAfter(t *testing.T) {
	// A node informed at step t0 participates from the first stage that
	// starts strictly after t0.
	cases := []struct{ t0, k, want int }{
		{0, 5, 1},  // source: participates from stage 1
		{1, 5, 2},  // informed mid-stage 1 -> stage 2
		{5, 5, 2},  // informed at last step of stage 1 -> stage 2
		{6, 5, 3},  // informed at first step of stage 2 -> stage 3
		{10, 5, 3}, // end of stage 2 -> stage 3
	}
	for _, c := range cases {
		first := 0
		for step := 1; first == 0; step++ {
			if c.t0 < ladder(c.k).at(step).Start {
				first = (step-1)/c.k + 1
			}
		}
		if first != c.want {
			t.Errorf("informed at %d with k=%d: first stage %d, want %d", c.t0, c.k, first, c.want)
		}
	}
}

func runOn(t *testing.T, g *graph.Graph, seed uint64) *radio.Result {
	t.Helper()
	res, err := radio.Run(g, New(), radio.Config{Seed: seed}, radio.Options{})
	if err != nil {
		t.Fatalf("decay did not complete: %v", err)
	}
	return res
}

func TestCompletesOnPath(t *testing.T) {
	res := runOn(t, graph.Path(32), 1)
	if !res.Completed {
		t.Fatal("not completed")
	}
}

func TestCompletesOnStar(t *testing.T) {
	res := runOn(t, graph.Star(64), 2)
	if !res.Completed {
		t.Fatal("not completed")
	}
}

func TestCompletesOnCompleteLayered(t *testing.T) {
	g, err := graph.UniformCompleteLayered(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, g, 3)
	if !res.Completed {
		t.Fatal("not completed")
	}
}

func TestCompletesOnCliqueDespiteContention(t *testing.T) {
	// A clique forces every informed node to contend; Decay's ladder must
	// still get a singleton transmission through.
	res := runOn(t, graph.Clique(100), 4)
	if !res.Completed {
		t.Fatal("not completed")
	}
}

func TestCompletesOnRandomNetworks(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		g := graph.GNPConnected(200, 0.02, src)
		res := runOn(t, g, uint64(trial))
		if !res.Completed {
			t.Fatalf("trial %d not completed", trial)
		}
	}
}

func TestScalesLikeDLogN(t *testing.T) {
	// On a path (D = n-1, collision-free fronts are still slowed by the
	// ladder), time should be roughly proportional to D·log n: check that
	// doubling D roughly doubles time (within loose factors).
	avg := func(n int) float64 {
		total := 0
		const trials = 5
		for s := 0; s < trials; s++ {
			res := runOn(t, graph.Path(n), uint64(100+s))
			total += res.BroadcastTime
		}
		return float64(total) / trials
	}
	t256, t512 := avg(256), avg(512)
	ratio := t512 / t256
	if ratio < 1.4 || ratio > 3.2 {
		t.Fatalf("time ratio for doubled path length = %.2f, expected ~2", ratio)
	}
}

func TestTruncatedStageStillRunsButSlower(t *testing.T) {
	// A truncated ladder (stage length 3) cannot reach probabilities low
	// enough for high-degree fronts; on a star with many leaves... the star
	// informs leaves in one source transmission, so use a StarChain where
	// w leaves must funnel into one hub.
	g := graph.StarChain(2, 64)
	full, err := radio.Run(g, New(), radio.Config{Seed: 9}, radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	short, err := radio.Run(g, &Protocol{StageLength: 3}, radio.Config{Seed: 9},
		radio.Options{MaxSteps: full.BroadcastTime * 50})
	if err != nil {
		// Acceptable outcome: truncation livelocks within the budget.
		return
	}
	if short.BroadcastTime < full.BroadcastTime {
		t.Logf("truncated decay was faster on this seed (%d < %d); tolerated, distributional claim checked in E8",
			short.BroadcastTime, full.BroadcastTime)
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := graph.StarChain(3, 16)
	a := runOn(t, g, 42)
	b := runOn(t, g, 42)
	if a.BroadcastTime != b.BroadcastTime || a.Transmissions != b.Transmissions {
		t.Fatal("same seed produced different runs")
	}
}
