package lowerbound

import (
	"fmt"
	"sort"

	"adhocradio/internal/bitset"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

// DirectedParams configures BuildDirectedLayered.
type DirectedParams struct {
	// N is the largest label (N+1 nodes, source 0).
	N int
	// D is the number of layers (radius of the directed network).
	D int
	// MaxWaitSteps caps the per-layer delay game (0 = generous default).
	MaxWaitSteps int
}

// DirectedConstruction is the output of BuildDirectedLayered: a directed
// complete layered network adversarially composed for one protocol.
type DirectedConstruction struct {
	G *graph.Graph
	// Layers[i] is the label set of layer i+1 (layer 0 is the source).
	Layers [][]int
	// CrossAt[i] is the step at which layer i+1 was informed.
	CrossAt []int
	// InformedAt records construction-time informed steps; the equivalence
	// check replays the real run against it.
	InformedAt map[int]int
	// Removed counts candidates discarded across all delay games.
	Removed int
}

// Delay returns the total delay the adversary achieved: the step at which
// the last layer was informed.
func (c *DirectedConstruction) Delay() int {
	if len(c.CrossAt) == 0 {
		return 0
	}
	return c.CrossAt[len(c.CrossAt)-1]
}

// layerGame tracks one layer's delay game: the live candidate set, and for
// every game step the live members that transmitted, so that removals can
// be checked (and cascaded) against the whole past. The invariant is that
// no past step has exactly one transmitter among the CURRENT live set —
// sound because in a directed layered network nobody can observe a layer's
// transmissions until the next layer exists.
//
// Member state is label-indexed and members are walked through the
// ascending candidate list, so the game trace is replayable without
// sorting.
type layerGame struct {
	candidates []int  // ascending; the live ones form the layer
	live       []bool // by label
	nLive      int
	target     int
	records    [][]int // per game step: live members that transmitted
	counts     []int   // per game step: |live ∩ Y| under current live
	stepsOf    [][]int // by label: indices into records
	inBatch    []bool  // by label: scratch for one tentative removal
}

func newLayerGame(candidates []int, target, labels int) *layerGame {
	g := &layerGame{
		candidates: candidates,
		live:       make([]bool, labels),
		nLive:      len(candidates),
		target:     target,
		stepsOf:    make([][]int, labels),
		inBatch:    make([]bool, labels),
	}
	for _, c := range candidates {
		g.live[c] = true
	}
	return g
}

// observe records this step's transmitters (within the live set) and
// returns (informer, true) when a singleton must stand — either because the
// live set is already at the target size, or because removing it would
// cascade below the target. Otherwise it prunes (possibly cascading) and
// returns the number of members removed.
func (g *layerGame) observe(transmitting func(label int) bool) (informer int, crossed bool, removed int) {
	y := make([]int, 0, 4)
	for _, c := range g.candidates {
		if g.live[c] && transmitting(c) {
			y = append(y, c)
		}
	}
	idx := len(g.records)
	g.records = append(g.records, y)
	g.counts = append(g.counts, len(y))
	for _, m := range y {
		g.stepsOf[m] = append(g.stepsOf[m], idx)
	}
	if len(y) != 1 {
		return 0, false, 0
	}
	// Tentative batch removal with cascade.
	batch := []int{y[0]}
	g.inBatch[y[0]] = true
	tmpCounts := map[int]int{} // record index -> tentative count override
	countOf := func(i int) int {
		if c, ok := tmpCounts[i]; ok {
			return c
		}
		return g.counts[i]
	}
	for q := 0; q < len(batch); q++ {
		for _, i := range g.stepsOf[batch[q]] {
			c := countOf(i) - 1
			tmpCounts[i] = c
			if c != 1 {
				continue
			}
			// Exactly one live, un-batched transmitter remains at step i:
			// it must go too.
			for _, cand := range g.records[i] {
				if g.live[cand] && !g.inBatch[cand] {
					g.inBatch[cand] = true
					batch = append(batch, cand)
					break
				}
			}
		}
	}
	for _, m := range batch {
		g.inBatch[m] = false
	}
	if g.nLive-len(batch) < g.target {
		// Cannot prune without dropping below the target: the singleton
		// stands and the layer crosses now. Roll back this step's record so
		// the frozen set's history is exactly the steps before the cross.
		return y[0], true, 0
	}
	// Commit the batch. Removal and count decrements commute, so the
	// cascade's order is as good as any.
	for _, m := range batch {
		g.live[m] = false
		for _, i := range g.stepsOf[m] {
			g.counts[i]--
		}
		g.stepsOf[m] = nil
	}
	g.nLive -= len(batch)
	return 0, false, len(batch)
}

// frozen returns the final layer, sorted.
func (g *layerGame) frozen() []int {
	layer := make([]int, 0, g.nLive)
	for _, c := range g.candidates {
		if g.live[c] {
			layer = append(layer, c)
		}
	}
	return layer
}

// BuildDirectedLayered plays the Clementi–Monti–Silvestri-style game of
// reference [10] (the directed Ω(n log D) bound the paper contrasts with in
// Section 4.3): the adversary commits the composition of each layer of a
// directed complete layered network only after watching the algorithm run.
//
// Layer i+1's candidates are all unplaced labels; they are all informed by
// layer i's standing singleton transmission and then simulated live.
// Whenever exactly one live candidate transmits — which would inform the
// next layer — the adversary removes it (cascading removals that would
// retroactively create earlier singletons for the remaining set), which is
// consistent because in a directed network nobody can yet observe the
// layer's transmissions. When pruning would shrink the layer below its
// target size, the singleton stands and the front advances.
//
// Feedback-based algorithms (Select-and-Send, Complete-Layered) deadlock on
// directed layered networks — their Echo needs the back-edges whose absence
// is exactly why the paper's undirected refutation of [10]'s claim does not
// carry over to directed graphs. Attack oblivious or forward-only
// protocols (round-robin, oblivious decay schedules).
func BuildDirectedLayered(p radio.DeterministicProtocol, params DirectedParams) (*DirectedConstruction, error) {
	if !p.Deterministic() {
		return nil, fmt.Errorf("lowerbound: protocol %s does not declare determinism", p.Name())
	}
	if _, ok := radio.Protocol(p).(radio.NeighborAwareProtocol); ok {
		return nil, fmt.Errorf("lowerbound: protocol %s requires neighborhood knowledge", p.Name())
	}
	if sp, ok := radio.Protocol(p).(radio.SpontaneousProtocol); ok && sp.Spontaneous() {
		return nil, fmt.Errorf("lowerbound: protocol %s uses spontaneous transmissions", p.Name())
	}
	n, d := params.N, params.D
	if d < 1 || n < 2*d {
		return nil, fmt.Errorf("lowerbound: need D >= 1 and n >= 2D (got n=%d, D=%d)", n, d)
	}
	maxWait := params.MaxWaitSteps
	if maxWait == 0 {
		maxWait = 64 * n * (2 + intLog2(n))
	}

	cfg := radio.Config{N: n + 1, R: n}
	cons := &DirectedConstruction{InformedAt: map[int]int{0: 0}}
	edges := graph.NewBuilder(n+1, false)
	// Node state is label-indexed; a nil program is a node with an empty
	// history.
	programs := make([]radio.NodeProgram, n+1)
	programs[0] = p.NewNode(0, cfg)

	pool := bitset.New(n + 1)
	for lbl := 1; lbl <= n; lbl++ {
		pool.Add(lbl)
	}

	t := 0
	sent := make([]bool, n+1)
	payloads := make([]any, n+1)
	step := func() {
		t++
		for lbl, prog := range programs {
			sent[lbl], payloads[lbl] = false, nil
			if prog != nil {
				sent[lbl], payloads[lbl] = prog.Act(t)
			}
		}
	}
	transmitting := func(lbl int) bool { return sent[lbl] }
	singletonOf := func(members []int) (int, bool) {
		found, count := -1, 0
		for _, m := range members {
			if transmitting(m) {
				found = m
				count++
				if count > 1 {
					return -1, false
				}
			}
		}
		return found, count == 1
	}
	// deliverFixed feeds every frozen layer from its predecessor.
	deliverFixed := func() {
		prev := []int{0}
		for _, layer := range cons.Layers {
			if w, ok := singletonOf(prev); ok {
				for _, v := range layer {
					if !transmitting(v) {
						programs[v].Deliver(t, radio.Message{From: w, Payload: payloads[w]})
					}
				}
			}
			prev = layer
		}
	}

	// pendingInformer carries the standing singleton that ended the
	// previous game: it is the transmission that informs the next layer,
	// and it happened at the current step t.
	pendingInformer := -1
	prevLayer := []int{0}

	for i := 1; i <= d; i++ {
		remaining := d - i + 1
		// Reserve one label for every later layer: a cascade-forced
		// crossing can freeze the whole candidate set into this layer, and
		// the reserved labels guarantee the remaining layers stay
		// non-empty.
		reserve := remaining - 1
		avail := pool.Len() - reserve
		if avail < 1 {
			return nil, fmt.Errorf("lowerbound: pool exhausted at layer %d", i)
		}
		target := pool.Len() / remaining
		if target < 1 {
			target = 1
		}
		if target > avail {
			target = avail
		}

		informer := pendingInformer
		if informer == -1 {
			// Bootstrap (layer 1): wait for the source's first
			// transmission.
			waited := 0
			for {
				step()
				waited++
				if waited > maxWait {
					return nil, fmt.Errorf("lowerbound: %w (layer %d, %d steps, protocol %s)",
						ErrStalled, i, maxWait, p.Name())
				}
				deliverFixed()
				if w, ok := singletonOf(prevLayer); ok {
					informer = w
					break
				}
			}
		}
		cons.CrossAt = append(cons.CrossAt, t)

		// Inform all candidates with the standing singleton's payload (the
		// reserved highest labels sit out of this game).
		candidates := pool.Elements()
		candidates = candidates[:len(candidates)-reserve]
		for _, c := range candidates {
			prog := p.NewNode(c, cfg)
			prog.Deliver(t, radio.Message{From: informer, Payload: payloads[informer]})
			programs[c] = prog
			cons.InformedAt[c] = t
		}

		game := newLayerGame(candidates, target, n+1)
		pendingInformer = -1
		for {
			step()
			if t > maxWait*(i+1) {
				return nil, fmt.Errorf("lowerbound: %w (game %d, protocol %s)", ErrStalled, i, p.Name())
			}
			deliverFixed()
			// Live candidates hear the previous layer's singletons.
			if w, ok := singletonOf(prevLayer); ok {
				for _, c := range candidates {
					if game.live[c] && !transmitting(c) {
						programs[c].Deliver(t, radio.Message{From: w, Payload: payloads[w]})
					}
				}
			}
			inf, crossed, removed := game.observe(transmitting)
			if removed > 0 {
				cons.Removed += removed
			}
			if crossed {
				pendingInformer = inf
				break
			}
		}

		// Freeze layer i; pruned candidates return to the pool with reset
		// histories.
		layer := game.frozen()
		for _, v := range layer {
			pool.Remove(v)
		}
		for _, c := range candidates {
			if !game.live[c] {
				programs[c] = nil
				delete(cons.InformedAt, c)
			}
		}
		edges.Grow(len(prevLayer) * len(layer))
		for _, u := range prevLayer {
			for _, v := range layer {
				edges.MustAddEdge(u, v)
			}
		}
		cons.Layers = append(cons.Layers, layer)
		prevLayer = layer
	}
	// The final pending singleton is the step at which a (D+1)-th layer
	// would be informed; record it as the total delay.
	cons.CrossAt = append(cons.CrossAt, t)

	// Any leftover labels join the last layer; they have no out-edges, so
	// the simulated histories of everyone else are unaffected.
	if leftovers := pool.Elements(); len(leftovers) > 0 {
		prev := []int{0}
		if len(cons.Layers) >= 2 {
			prev = cons.Layers[len(cons.Layers)-2]
		}
		last := cons.Layers[len(cons.Layers)-1]
		for _, v := range leftovers {
			for _, u := range prev {
				edges.MustAddEdge(u, v)
			}
			last = append(last, v)
			pool.Remove(v)
		}
		sort.Ints(last)
		cons.Layers[len(cons.Layers)-1] = last
	}
	g, err := edges.Build()
	if err != nil {
		return nil, err
	}
	cons.G = g
	return cons, g.Validate()
}

// VerifyDirectedRealRun replays the protocol on the constructed directed
// network and checks the construction's informed-times against reality
// (this construction's analogue of the executable Lemma 9).
func VerifyDirectedRealRun(p radio.DeterministicProtocol, c *DirectedConstruction, maxSteps int) (*radio.Result, error) {
	res, err := radio.Run(c.G, p, radio.Config{N: c.G.N(), R: c.G.N() - 1}, radio.Options{MaxSteps: maxSteps})
	if err != nil {
		return res, fmt.Errorf("lowerbound: directed real run: %w", err)
	}
	for _, v := range sortedLabels(c.InformedAt) {
		if want := c.InformedAt[v]; res.InformedAt[v] != want {
			return res, fmt.Errorf("lowerbound: directed equivalence violated: node %d informed at %d, construction says %d",
				v, res.InformedAt[v], want)
		}
	}
	return res, nil
}
