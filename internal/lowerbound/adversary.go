package lowerbound

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"adhocradio/internal/bitset"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
	"adhocradio/internal/selective"
)

// Params configures the adversarial construction of Theorem 2.
type Params struct {
	// N is the largest label: the network has N+1 nodes labelled 0..N
	// ("the graph contains all nodes from 0 to n").
	N int
	// D is the target radius (even; the paper handles odd D by building
	// for D-1 and appending one node).
	D int
	// Force builds outside the formal validity window n^{3/4} < D <= n/16.
	// The machinery still runs (blocks, jamming, witnesses); only the
	// guarantees proved for large n may degrade, and VerifyRealRun can
	// check the result empirically.
	Force bool
	// MaxWaitSteps caps how long the construction waits for the next even
	// node to transmit (part 4). A protocol that never advances the token
	// would otherwise stall the builder. 0 selects a generous default.
	MaxWaitSteps int
}

// OddLayer records one constructed odd layer L_{2i+1} = Prime ∪ Star:
// Prime (the paper's L') connects only back to node i; Star (L*) also
// connects forward to node i+1.
type OddLayer struct {
	Prime []int
	Star  []int
}

// Construction is the adversary's output: the network G_A plus everything
// needed to check the lower bound.
type Construction struct {
	G *graph.Graph
	// N, D, K, LMax echo the parameters: K = ⌈n/4D⌉ (clamped to >= 4) and
	// LMax = ⌈k·log(n/4)/(8·log k)⌉, the per-stage jamming length.
	N, D, K, LMax int
	// TBound[i] is t_i: node i's first transmission happens at step t_i+1.
	TBound []int
	// Layers[i] is L_{2i+1}.
	Layers []OddLayer
	// LastLayer is L_D: every label not placed elsewhere, attached to all
	// of L*_{D-1}.
	LastLayer []int
	// InformedAt records, for every node informed during the construction,
	// the step of its first (source-message-carrying) reception. Used by
	// VerifyRealRun to confirm abstract and real histories coincide
	// (executable Lemma 9).
	InformedAt map[int]int
	// StepsSimulated is the total number of abstract steps the
	// construction played.
	StepsSimulated int
	// JamSilent, JamSingle and JamCollision count the jamming function's
	// answers across all stages (the adversary's answer distribution).
	JamSilent, JamSingle, JamCollision int
	// Forced reports the construction ran outside the formal window.
	Forced bool
}

// LowerBoundSteps returns the guaranteed delay of Theorem 2's proof: node
// D/2−1 does not transmit before step (D/2−1)·LMax, which is
// Ω(n·log n / log(n/D)).
func (c *Construction) LowerBoundSteps() int {
	return (c.D/2 - 1) * c.LMax
}

// ErrStalled is wrapped in errors returned when the attacked algorithm
// never made the next even node transmit: the algorithm cannot finish
// broadcasting on the network built so far, an even stronger failure than
// the lower bound.
var ErrStalled = errors.New("lowerbound: algorithm stalled; next even node never transmitted")

// Build runs the Section 3 construction against protocol p.
func Build(p radio.DeterministicProtocol, params Params) (*Construction, error) {
	if !p.Deterministic() {
		return nil, fmt.Errorf("lowerbound: protocol %s does not declare determinism", p.Name())
	}
	if _, ok := radio.Protocol(p).(radio.NeighborAwareProtocol); ok {
		return nil, fmt.Errorf("lowerbound: protocol %s requires neighborhood knowledge; the construction cannot attack that model", p.Name())
	}
	n, d := params.N, params.D
	if d%2 != 0 || d < 4 {
		return nil, fmt.Errorf("lowerbound: D=%d must be even and >= 4", d)
	}
	if n < 2*d {
		return nil, fmt.Errorf("lowerbound: n=%d too small for D=%d", n, d)
	}
	window := float64(d) > math.Pow(float64(n), 0.75) && d <= n/16
	if !window && !params.Force {
		return nil, fmt.Errorf("lowerbound: (n=%d, D=%d) outside the window n^{3/4} < D <= n/16; set Force to build anyway", n, d)
	}
	k := (n + 4*d - 1) / (4 * d) // ⌈n/4D⌉
	if k < 4 {
		if !params.Force {
			return nil, fmt.Errorf("lowerbound: k=⌈n/4D⌉=%d < 4", k)
		}
		k = 4
	}
	if k%2 != 0 {
		k++ // keep k/2 blocks well-defined; the paper assumes k even
	}
	logN4 := math.Log2(float64(n) / 4)
	lmax := int(math.Ceil(float64(k) * logN4 / (8 * math.Log2(float64(k)))))
	if lmax < 1 {
		lmax = 1
	}
	maxWait := params.MaxWaitSteps
	if maxWait == 0 {
		maxWait = 64 * n * (2 + intLog2(n)) // far above any O(n log n) algorithm's need
	}

	b := &builder{
		proto:    p,
		cfg:      radio.Config{N: n + 1, R: n},
		n:        n,
		d:        d,
		k:        k,
		lmax:     lmax,
		maxWait:  maxWait,
		programs: map[int]radio.NodeProgram{},
		edges:    graph.NewBuilder(n+1, true),
		adj:      make([][]int, n+1),
		cons: &Construction{
			N:          n,
			D:          d,
			K:          k,
			LMax:       lmax,
			InformedAt: map[int]int{},
			Forced:     !window,
		},
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.cons, nil
}

// builder carries the live state of the construction.
type builder struct {
	proto   radio.DeterministicProtocol
	cfg     radio.Config
	n, d    int
	k, lmax int
	maxWait int

	cons *Construction
	// edges collects G_A for the final Build; adj mirrors it as the
	// construction goes, because procedure Radio reads the partial graph.
	edges *graph.Builder
	adj   [][]int

	// programs holds a live node program for every node with non-empty
	// abstract history. Candidates not chosen at part 3 are deleted
	// (their histories are reset to empty, construction point 6).
	programs map[int]radio.NodeProgram
	// constructed lists nodes already wired into G_A, sorted.
	constructed []int
	// used marks labels assigned to a layer (or reserved for even layers).
	used []bool

	// Per-stage state.
	candidates []int
	jam        *jammer
	ySets      []*bitset.Set

	// Per-step action buffers.
	txLabels   []int
	txPayloads map[int]any
}

// run drives the whole construction.
func (b *builder) run() error {
	n, d := b.n, b.d
	b.used = make([]bool, n+1)
	for i := 0; i < d/2; i++ {
		b.used[i] = true // reserved for the even layers L_{2i} = {i}
	}
	b.programs[0] = b.proto.NewNode(0, b.cfg)
	b.cons.InformedAt[0] = 0
	b.constructed = []int{0}
	b.txPayloads = map[int]any{}

	t := 0
	for i := 0; i < d/2; i++ {
		// Part 4 of the previous stage (bootstrap for i = 0): play steps
		// until node i transmits; that step becomes l=1 of stage i+1.
		var err error
		t, err = b.waitForEven(i, t)
		if err != nil {
			return err
		}
		// t is now the step at which node i transmitted first; TBound is
		// the step before it.
		b.cons.TBound = append(b.cons.TBound, t-1)
		t, err = b.jamStage(i, t)
		if err != nil {
			return err
		}
	}
	b.attachLastLayer()
	b.cons.StepsSimulated = t
	g, err := b.edges.Build()
	if err != nil {
		return err
	}
	b.cons.G = g
	return g.Validate()
}

// link wires the undirected edge {u, v} into G_A.
func (b *builder) link(u, v int) {
	b.edges.MustAddEdge(u, v)
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
}

// collectActions calls Act(t) on every live program (in ascending label
// order, for determinism) and records transmitters and payloads.
func (b *builder) collectActions(t int) {
	b.txLabels = b.txLabels[:0]
	clear(b.txPayloads)
	for _, lbl := range sortedLabels(b.programs) {
		if tx, payload := b.programs[lbl].Act(t); tx {
			b.txLabels = append(b.txLabels, lbl)
			b.txPayloads[lbl] = payload
		}
	}
}

func (b *builder) transmitted(lbl int) bool {
	_, ok := b.txPayloads[lbl]
	return ok
}

// deliverConstructed applies procedure Radio to every constructed node
// except `skip` (the node whose reception the jamming answer dictates):
// a listening node receives iff exactly one of its graph neighbors
// transmitted.
func (b *builder) deliverConstructed(t int, skip int) {
	for _, v := range b.constructed {
		if v == skip || b.transmitted(v) {
			continue
		}
		from, count := -1, 0
		for _, u := range b.adj[v] {
			if b.transmitted(u) {
				from, count = u, count+1
				if count > 1 {
					break
				}
			}
		}
		if count == 1 {
			b.deliver(v, t, from)
		}
	}
}

// deliver hands a message to node v's program, creating it on first
// contact (unless the payload is label-only, which cannot inform).
func (b *builder) deliver(v, t, from int) {
	payload := b.txPayloads[from]
	prog, ok := b.programs[v]
	if !ok {
		if c, isCarrier := payload.(radio.SourceCarrier); isCarrier && !c.CarriesSourceMessage() {
			return
		}
		prog = b.proto.NewNode(v, b.cfg)
		b.programs[v] = prog
		b.cons.InformedAt[v] = t
	}
	prog.Deliver(t, radio.Message{From: from, Payload: payload})
}

// waitForEven plays steps after t0 until node i's program transmits,
// returning the step at which it did. All constructed nodes evolve by
// procedure Radio; nodes outside the constructed prefix hear nothing.
func (b *builder) waitForEven(i, t0 int) (int, error) {
	for t := t0 + 1; t <= t0+b.maxWait; t++ {
		b.collectActions(t)
		if b.transmitted(i) {
			return t, nil
		}
		b.deliverConstructed(t, -1)
	}
	return 0, fmt.Errorf("lowerbound: %w (node %d, %d steps, protocol %s)",
		ErrStalled, i, b.maxWait, b.proto.Name())
}

// jamStage plays part 2 of stage i+1: lmax jamming steps starting at step
// tFirst (at which node i has already been observed transmitting — actions
// for tFirst are already collected), then part 3: fixing L_{2i+1}. It
// returns the last step played.
func (b *builder) jamStage(i, tFirst int) (int, error) {
	// R_{i+1}: all labels not yet used.
	b.candidates = b.candidates[:0]
	for lbl := 0; lbl <= b.n; lbl++ {
		if !b.used[lbl] {
			b.candidates = append(b.candidates, lbl)
		}
	}
	jam, err := newJammer(b.candidates, b.k)
	if err != nil {
		return 0, err
	}
	b.jam = jam
	b.ySets = b.ySets[:0]

	// L*_{2i-1}: node i's already-wired neighbors (for i = 0 there are
	// none). Needed for the special delivery rule at node i.
	starPrev := append([]int(nil), b.adj[i]...)

	t := tFirst
	for l := 1; l <= b.lmax; l++ {
		if l > 1 {
			t++
			b.collectActions(t)
		}
		// Y_l: abstract transmitters among the candidates.
		y := bitset.New(b.n + 1)
		for _, c := range b.candidates {
			if b.transmitted(c) {
				y.Add(c)
			}
		}
		b.ySets = append(b.ySets, y)
		answer, single := jam.step(y)
		switch answer {
		case jamSilent:
			b.cons.JamSilent++
		case jamSingle:
			b.cons.JamSingle++
		case jamCollision:
			b.cons.JamCollision++
		}

		// Candidates: hear node i when it transmits and they do not.
		if b.transmitted(i) {
			for _, c := range b.candidates {
				if !b.transmitted(c) {
					b.deliver(c, t, i)
				}
			}
		}
		// Node i: the jamming answer combined with L*_{2i-1}.
		if !b.transmitted(i) {
			starTx, starCount := -1, 0
			for _, w := range starPrev {
				if b.transmitted(w) {
					starTx, starCount = w, starCount+1
				}
			}
			switch {
			case answer == jamSilent && starCount == 1:
				b.deliver(i, t, starTx)
			case answer == jamSingle && starCount == 0:
				b.deliver(i, t, single)
			}
		}
		// Everyone else constructed: procedure Radio.
		b.deliverConstructed(t, i)
	}

	return t, b.fixLayer(i)
}

// fixLayer is part 3: choose p*, X' (two elements of every other block) and
// X* (a non-selectivity witness inside B(p*)), wire the edges, and reset
// the histories of unchosen candidates.
func (b *builder) fixLayer(i int) error {
	pStar, size := b.jam.largestBlock()
	if size < b.k {
		return fmt.Errorf("lowerbound: stage %d: largest block has %d < k=%d elements", i, size, b.k)
	}
	mApprox := float64(len(b.candidates))
	if threshold := float64(b.k) * math.Pow(mApprox, 0.25); float64(size) < threshold && !b.cons.Forced {
		return fmt.Errorf("lowerbound: stage %d: largest block %d below k·m^{1/4}=%.1f", i, size, threshold)
	}

	var prime []int
	for p := range b.jam.blocks {
		if p == pStar {
			continue
		}
		two := b.jam.pickTwo(p)
		prime = append(prime, two[0], two[1])
	}

	star := selective.Witness(b.ySets, b.jam.blocks[pStar].Elements(), b.k)
	if star == nil {
		return fmt.Errorf("lowerbound: stage %d: no non-selectivity witness in B(p*) (|B|=%d, k=%d, %d Y-sets); the observed family is selective",
			i, size, b.k, len(b.ySets))
	}

	layer := OddLayer{Prime: prime, Star: star}
	b.cons.Layers = append(b.cons.Layers, layer)

	// Wire the edges: node i to all of L_{2i+1}; L* forward to node i+1
	// (when it exists).
	for _, w := range prime {
		b.link(i, w)
		b.used[w] = true
	}
	for _, w := range star {
		b.link(i, w)
		b.used[w] = true
		if i+1 < b.d/2 {
			b.link(w, i+1)
		}
	}
	b.constructed = append(b.constructed, prime...)
	b.constructed = append(b.constructed, star...)
	if i+1 < b.d/2 {
		b.constructed = append(b.constructed, i+1)
		// Node i+1 has an empty history; its program is created on its
		// first reception (part 4).
	}
	sort.Ints(b.constructed)

	// Point 6: unchosen candidates' histories are reset to empty.
	for _, c := range b.candidates {
		if !b.used[c] {
			delete(b.programs, c)
			delete(b.cons.InformedAt, c)
		}
	}
	return nil
}

// attachLastLayer wires every remaining label into L_D, adjacent to all of
// L*_{D-1}.
func (b *builder) attachLastLayer() {
	lastStar := b.cons.Layers[len(b.cons.Layers)-1].Star
	for lbl := 0; lbl <= b.n; lbl++ {
		if b.used[lbl] {
			continue
		}
		b.cons.LastLayer = append(b.cons.LastLayer, lbl)
		for _, w := range lastStar {
			b.link(w, lbl)
		}
	}
}

func intLog2(x int) int {
	l := 0
	for 1<<uint(l+1) <= x {
		l++
	}
	return l
}

// Report renders a human-readable summary of the construction.
func (c *Construction) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adversarial network: n=%d (labels 0..%d), radius %d\n", c.G.N(), c.N, c.D)
	fmt.Fprintf(&b, "parameters: k=%d, lmax=%d jamming steps/stage, forced=%v\n", c.K, c.LMax, c.Forced)
	fmt.Fprintf(&b, "certified: node %d silent before step %d\n", c.D/2-1, c.LowerBoundSteps())
	starTotal, primeTotal := 0, 0
	minStar, maxStar := 1<<30, 0
	for _, l := range c.Layers {
		starTotal += len(l.Star)
		primeTotal += len(l.Prime)
		if len(l.Star) < minStar {
			minStar = len(l.Star)
		}
		if len(l.Star) > maxStar {
			maxStar = len(l.Star)
		}
	}
	fmt.Fprintf(&b, "odd layers: %d (dead-ends %d, forwarders %d, |L*| in [%d,%d])\n",
		len(c.Layers), primeTotal, starTotal, minStar, maxStar)
	fmt.Fprintf(&b, "last layer: %d nodes; construction played %d abstract steps\n",
		len(c.LastLayer), c.StepsSimulated)
	fmt.Fprintf(&b, "jamming answers: silent %d, single %d, collision %d\n",
		c.JamSilent, c.JamSingle, c.JamCollision)
	for i, tb := range c.TBound {
		if i < 3 || i >= len(c.TBound)-1 {
			fmt.Fprintf(&b, "  t_%d = %d\n", i, tb)
		} else if i == 3 {
			fmt.Fprintf(&b, "  ...\n")
		}
	}
	return b.String()
}

// VerifyRealRun replays protocol p on the constructed network with the real
// simulator and checks the executable version of Lemma 9: every node the
// construction informed is informed at the same step in the real run, and
// node D/2−1 stays uninformed until at least its construction-time step —
// which yields the Ω(n log n / log(n/D)) bound. It returns the real run's
// result for further measurement.
func VerifyRealRun(p radio.DeterministicProtocol, c *Construction, maxSteps int) (*radio.Result, error) {
	res, err := radio.Run(c.G, p, radio.Config{N: c.N + 1, R: c.N}, radio.Options{MaxSteps: maxSteps})
	if err != nil {
		return res, fmt.Errorf("lowerbound: real run: %w", err)
	}
	for _, v := range sortedLabels(c.InformedAt) {
		if want := c.InformedAt[v]; res.InformedAt[v] != want {
			return res, fmt.Errorf("lowerbound: Lemma 9 violated: node %d informed at %d in the real run, %d in the construction",
				v, res.InformedAt[v], want)
		}
	}
	return res, nil
}
