package lowerbound

import (
	"errors"
	"testing"

	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

func TestLayerGameInvariant(t *testing.T) {
	// Script a game directly: candidates 1..6, target 2. A singleton step
	// must trigger removal; a later removal must cascade when it would
	// expose a past singleton.
	g := newLayerGame([]int{1, 2, 3, 4, 5, 6}, 2, 7)

	txSet := func(members ...int) func(int) bool {
		m := map[int]bool{}
		for _, v := range members {
			m[v] = true
		}
		return func(v int) bool { return m[v] }
	}

	// Step 1: {1,2} transmit — no singleton.
	if _, crossed, removed := g.observe(txSet(1, 2)); crossed || removed != 0 {
		t.Fatal("pair step mishandled")
	}
	// Step 2: {2} transmits — singleton: removing 2 exposes step 1's
	// remaining transmitter 1, so both must go (cascade).
	_, crossed, removed := g.observe(txSet(2))
	if crossed || removed != 2 {
		t.Fatalf("cascade removed %d (crossed=%v), want 2", removed, crossed)
	}
	if g.live[1] || g.live[2] {
		t.Fatal("cascade left 1 or 2 alive")
	}
	// Step 3: {3} — singleton, plain removal (no history for 3).
	if _, crossed, removed := g.observe(txSet(3)); crossed || removed != 1 {
		t.Fatalf("plain removal failed (removed=%d)", removed)
	}
	// live = {4,5,6}, target 2: one more removal allowed.
	if _, crossed, removed := g.observe(txSet(4)); crossed || removed != 1 {
		t.Fatalf("removal to target failed (removed=%d)", removed)
	}
	// live = {5,6}: the next singleton must stand.
	inf, crossed, _ := g.observe(txSet(5))
	if !crossed || inf != 5 {
		t.Fatalf("crossing not detected: inf=%d crossed=%v", inf, crossed)
	}
	if got := g.frozen(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("frozen = %v", got)
	}
}

func TestLayerGameAbortsCascadeBelowTarget(t *testing.T) {
	// candidates {1,2,3}, target 2. Step 1: {1,2}. Step 2: {2}: removing 2
	// would cascade to 1 (step 1 singleton), leaving only {3} < target —
	// so the singleton must stand instead.
	g := newLayerGame([]int{1, 2, 3}, 2, 4)
	tx := func(members ...int) func(int) bool {
		m := map[int]bool{}
		for _, v := range members {
			m[v] = true
		}
		return func(v int) bool { return m[v] }
	}
	if _, crossed, _ := g.observe(tx(1, 2)); crossed {
		t.Fatal("unexpected cross")
	}
	inf, crossed, removed := g.observe(tx(2))
	if !crossed || inf != 2 || removed != 0 {
		t.Fatalf("abort failed: inf=%d crossed=%v removed=%d", inf, crossed, removed)
	}
	if g.nLive != 3 || !g.live[1] || !g.live[2] || !g.live[3] {
		t.Fatal("abort mutated the live set")
	}
}

func TestBuildDirectedLayeredRoundRobin(t *testing.T) {
	c, err := BuildDirectedLayered(det.RoundRobin{}, DirectedParams{N: 256, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, err := c.G.Radius(); err != nil || r != 8 {
		t.Fatalf("radius %d (%v)", r, err)
	}
	if len(c.Layers) != 8 {
		t.Fatalf("%d layers", len(c.Layers))
	}
	total := 0
	for _, l := range c.Layers {
		total += len(l)
	}
	if total != 256 {
		t.Fatalf("layers cover %d labels, want 256", total)
	}
	if c.Removed == 0 {
		t.Fatal("adversary never pruned anything; game inert")
	}
	// Crossing steps strictly increase.
	for i := 1; i < len(c.CrossAt); i++ {
		if c.CrossAt[i] <= c.CrossAt[i-1] {
			t.Fatalf("CrossAt not increasing: %v", c.CrossAt)
		}
	}
}

func TestDirectedEquivalenceRoundRobin(t *testing.T) {
	c, err := BuildDirectedLayered(det.RoundRobin{}, DirectedParams{N: 256, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := VerifyDirectedRealRun(det.RoundRobin{}, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("real run incomplete")
	}
	if res.BroadcastTime < c.CrossAt[len(c.CrossAt)-2] {
		t.Fatalf("broadcast %d before the last layer's informing step %d",
			res.BroadcastTime, c.CrossAt[len(c.CrossAt)-2])
	}
}

func TestDirectedEquivalenceObliviousDecay(t *testing.T) {
	p := det.ObliviousDecay{Seed: 3}
	c, err := BuildDirectedLayered(p, DirectedParams{N: 192, D: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDirectedRealRun(p, c, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedAdversarySlowsObliviousDecay(t *testing.T) {
	// The point: adversarial label placement must cost the oblivious
	// schedule far more than a benign placement of the same shape.
	p := det.ObliviousDecay{Seed: 5}
	const n, d = 256, 8
	c, err := BuildDirectedLayered(p, DirectedParams{N: n, D: d})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := VerifyDirectedRealRun(p, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := graph.UniformCompleteLayered(n+1, d)
	if err != nil {
		t.Fatal(err)
	}
	// Benign version must be directed too for a fair comparison: rebuild
	// as a directed layered graph with the same layer sizes.
	bres, err := radio.Run(directedVersion(benign, t), p, radio.Config{}, radio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if adv.BroadcastTime <= bres.BroadcastTime {
		t.Fatalf("adversarial %d not slower than benign %d", adv.BroadcastTime, bres.BroadcastTime)
	}
	t.Logf("oblivious decay: adversarial %d vs benign %d (%.1fx)",
		adv.BroadcastTime, bres.BroadcastTime, float64(adv.BroadcastTime)/float64(bres.BroadcastTime))
}

// directedVersion converts an undirected complete layered graph into its
// directed (forward arcs only) counterpart.
func directedVersion(g *graph.Graph, t *testing.T) *graph.Graph {
	t.Helper()
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(g.N(), false)
	for i := 0; i+1 < len(layers); i++ {
		for _, u := range layers[i] {
			for _, v := range layers[i+1] {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestBuildDirectedRejectsUnsuitableProtocols(t *testing.T) {
	if _, err := BuildDirectedLayered(det.DFSNeighborhood{}, DirectedParams{N: 64, D: 4}); err == nil {
		t.Fatal("neighbor-aware protocol accepted")
	}
	if _, err := BuildDirectedLayered(det.SpontaneousLinear{}, DirectedParams{N: 64, D: 4}); err == nil {
		t.Fatal("spontaneous protocol accepted")
	}
	if _, err := BuildDirectedLayered(det.RoundRobin{}, DirectedParams{N: 4, D: 4}); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestBuildDirectedDetectsDeadlockedFeedbackProtocols(t *testing.T) {
	// Select-and-Send needs back-edges for its echoes; on a directed
	// layered network the source waits forever for a reply.
	_, err := BuildDirectedLayered(det.SelectAndSend{}, DirectedParams{N: 64, D: 4, MaxWaitSteps: 2000})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}
