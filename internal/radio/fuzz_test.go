package radio

import (
	"errors"
	"testing"

	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// labelOnly is a payload that does not carry the source message (the shape
// of Section 4's Echo replies): hearing one must not inform a node.
type labelOnly struct{ from int }

func (labelOnly) CarriesSourceMessage() bool { return false }

// mixed is a deterministic protocol that interleaves carrier and label-only
// transmissions on a label-dependent schedule, exercising every delivery
// rule: collisions, half-duplex, and the SourceCarrier gate.
type mixed struct{}

func (mixed) Name() string { return "mixed" }
func (mixed) NewNode(label int, cfg Config) NodeProgram {
	return &mixedNode{label: label}
}

type mixedNode struct{ label int }

func (n *mixedNode) Act(t int) (bool, any) {
	switch (t + n.label) % 4 {
	case 0:
		return true, nil // carrier (nil payloads always carry the source message)
	case 1:
		return true, labelOnly{from: n.label}
	default:
		return false, nil
	}
}
func (n *mixedNode) Deliver(t int, msg Message) {}

// ladderCoin is a test-local oblivious coin protocol. It implements
// CoinProtocol, so the engine runs it on the coin path, and its programs'
// Act reads the same schedule, so the oracle runs it on the program path.
// Its stages of k steps cover every kind of CoinStep: position 0 is a
// source-only step in every third stage and a sure transmission (Exp 0)
// otherwise, positions 1..k-2 are a Decay ladder, and the last position
// alternates between silence (Exp < 0) and a 66-bit coin that draws two
// words and (almost) never fires.
type ladderCoin struct{ k int }

// ladderCoinProto is the lowest FuzzRunVsReference proto byte that selects
// ladderCoin. Lower bytes pick among the other four protocols by proto%4,
// so every committed corpus entry keeps the protocol it was found with.
const ladderCoinProto = 0xF0

func (p ladderCoin) Name() string { return "ladder-coin" }

func (p ladderCoin) at(t int) CoinStep {
	pos, stage := (t-1)%p.k, (t-1)/p.k
	st := CoinStep{Exp: pos, Start: t - pos}
	switch {
	case pos == 0 && stage%3 == 0:
		st.SourceOnly = true
	case pos == p.k-1 && stage%2 == 0:
		st.Exp = -1
	case pos == p.k-1:
		st.Exp = 66
	}
	return st
}

func (p ladderCoin) CoinSchedule(cfg Config) func(t int) CoinStep {
	return p.at
}

func (p ladderCoin) NewNode(label int, cfg Config) NodeProgram {
	n := &ladderCoinNode{at: p.at, src: rng.NewStream(cfg.Seed, uint64(label)),
		source: label == 0, informedAt: -1}
	if n.source {
		n.informedAt = 0
	}
	return n
}

type ladderCoinNode struct {
	at         func(int) CoinStep
	src        *rng.Source
	source     bool
	informedAt int
}

func (n *ladderCoinNode) Act(t int) (bool, any) {
	st := n.at(t)
	if st.SourceOnly {
		return n.source, nil
	}
	return st.Fires(n.informedAt, n.src), nil
}

func (n *ladderCoinNode) Deliver(t int, msg Message) {
	if n.informedAt < 0 {
		n.informedAt = t
	}
}

// fuzzGraph deterministically derives a small broadcastable topology from
// the fuzz input.
func fuzzGraph(gseed uint64, kind uint8, n int) *graph.Graph {
	src := rng.New(gseed)
	switch kind % 5 {
	case 0:
		return graph.GNPConnected(n, 3.0/float64(n), src)
	case 1:
		return graph.RandomTree(n, src)
	case 2:
		g, err := graph.RandomLayered(n, 2+int(gseed%5), 0.3, src)
		if err != nil {
			return graph.Path(n)
		}
		return g
	case 3:
		g, err := graph.DirectedLayered(n, 2+int(gseed%5), 0.3, src)
		if err != nil {
			return graph.Path(n)
		}
		return g
	default:
		return graph.GNPConnected(n, 0.2, src)
	}
}

// fuzzPlan derives a fault plan from three fuzz bytes. All-zero bytes mean
// no plan at all (the fault-free hot path); otherwise lossB packs link loss
// and churn, crashB packs crash and sleep fractions, jamB packs the jam
// probability and a jammer host.
func fuzzPlan(pseed uint64, n int, lossB, crashB, jamB uint8) *fault.Plan {
	if lossB == 0 && crashB == 0 && jamB == 0 {
		return nil
	}
	plan := &fault.Plan{
		Seed:      pseed ^ 0x9e3779b97f4a7c15,
		LinkLoss:  float64(lossB&0x3f) / 100, // [0, 0.63]
		ChurnProb: float64(lossB>>6) / 4,     // {0, 0.25, 0.5, 0.75}
		CrashFrac: float64(crashB&0x0f) / 32, // [0, ~0.47]
		SleepFrac: float64(crashB>>4) / 20,   // [0, 0.75]
		JamProb:   float64(jamB&0x0f) / 16,   // [0, ~0.94]
	}
	if plan.ChurnProb > 0 {
		plan.ChurnWindow = 16
	}
	if plan.CrashFrac > 0 {
		plan.CrashWindow = 1 + n
	}
	if plan.SleepFrac > 0 {
		plan.SleepPeriod, plan.SleepAwake = 8, 5
	}
	if plan.JamProb > 0 {
		plan.Jammers = []int{int(jamB>>4) % n}
	}
	return plan
}

// FuzzRunVsReference is the differential fuzzer the hot loop is gated on:
// for random connected graphs, seeds, protocols (randomized coin,
// deterministic flood, SourceCarrier-mixing mixed, and the nil-payload
// nilFlood and ladderCoin that are eligible for the bit-parallel tally
// kernel — ladderCoin on the engine's coin path against its NodePrograms
// in the oracle), and fault plans derived from three extra bytes, the
// optimized CSR engine and the naive oracle must agree on every observable
// Result field AND on every obs.Counters field — including runs that hit
// the step budget.
func FuzzRunVsReference(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(20), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint64(9), uint8(1), uint8(40), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint64(11), uint8(2), uint8(33), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint64(13), uint8(3), uint8(48), uint8(0), uint8(12), uint8(0), uint8(0))
	f.Add(uint64(5), uint64(15), uint8(4), uint8(64), uint8(2), uint8(0x80), uint8(0), uint8(0))
	f.Add(uint64(6), uint64(17), uint8(0), uint8(2), uint8(1), uint8(0), uint8(0x35), uint8(0))
	f.Add(uint64(7), uint64(19), uint8(1), uint8(25), uint8(2), uint8(0), uint8(0), uint8(0x78))
	f.Add(uint64(8), uint64(21), uint8(4), uint8(50), uint8(0), uint8(0x4a), uint8(0x23), uint8(0xe7))
	// Dispatch-crossover seeds (mirrored as named files in
	// testdata/fuzz/FuzzRunVsReference/): dense GNP under nilFlood at the
	// bitplane word boundaries n=64 (one word) and n=65 (one spare bit) and
	// at the size cap n=80 drive the bit-parallel kernel; the sparse control
	// fails the BitmapDense gate; mixed flips allNil (and so the dispatch)
	// per step; the fault-plan variant must bypass the kernel via tallyFaulty.
	f.Add(uint64(9), uint64(23), uint8(4), uint8(62), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(10), uint64(25), uint8(4), uint8(63), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(11), uint64(27), uint8(4), uint8(78), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(12), uint64(29), uint8(0), uint8(62), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(13), uint64(31), uint8(4), uint8(62), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(14), uint64(33), uint8(4), uint8(78), uint8(3), uint8(0x22), uint8(0), uint8(0))
	// Node-only plans (crash-only 0x0c, sleep-only 0x50) on the same dense
	// GNP inputs must stay off tallyFaulty and drive the fault-free tallies,
	// the bitset kernel included, with down receivers gated at delivery;
	// ladderCoin does so on the coin path.
	f.Add(uint64(15), uint64(35), uint8(4), uint8(62), uint8(3), uint8(0), uint8(0x0c), uint8(0))
	f.Add(uint64(16), uint64(37), uint8(4), uint8(78), uint8(3), uint8(0), uint8(0x50), uint8(0))
	f.Add(uint64(17), uint64(39), uint8(4), uint8(78), uint8(ladderCoinProto), uint8(0), uint8(0x0c), uint8(0))
	f.Add(uint64(18), uint64(41), uint8(4), uint8(62), uint8(ladderCoinProto), uint8(0), uint8(0x50), uint8(0))
	f.Add(uint64(19), uint64(43), uint8(4), uint8(78), uint8(ladderCoinProto), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, gseed, pseed uint64, kind, size, proto, lossB, crashB, jamB uint8) {
		n := 2 + int(size)%79 // [2, 80]
		g := fuzzGraph(gseed, kind, n)
		plan := fuzzPlan(pseed, n, lossB, crashB, jamB)
		var p Protocol
		switch {
		case proto >= ladderCoinProto:
			p = ladderCoin{k: 3 + int(gseed%5)}
		case proto%4 == 0:
			p = coin{}
		case proto%4 == 1:
			p = flood{}
		case proto%4 == 2:
			p = mixed{}
		default:
			// nilFlood transmits nil payloads only, so on bitmap-dense
			// inputs it drives the bit-parallel tally kernel and, around
			// the dispatch thresholds, the scalar/bitset crossover.
			p = nilFlood{}
		}
		// A finite budget keeps livelocking combinations (flood on a
		// colliding front) bounded; both simulators must then agree on the
		// partial result and on hitting the limit at all.
		const budget = 4096
		cfg := Config{Seed: pseed}
		var runner Runner
		fast, fastErr := runner.Run(g, p, cfg, Options{MaxSteps: budget, Fault: plan})
		ref, refCounters, refErr := RunReferenceObserved(g, p, cfg, budget, plan)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: fast=%v ref=%v", fastErr, refErr)
		}
		if fastErr != nil {
			if !errors.Is(fastErr, ErrStepLimit) || !errors.Is(refErr, ErrStepLimit) {
				t.Fatalf("unexpected errors: fast=%v ref=%v", fastErr, refErr)
			}
		}
		if fast == nil || ref == nil {
			t.Fatalf("nil result without validation error: fast=%v ref=%v", fast, ref)
		}
		if fast.BroadcastTime != ref.BroadcastTime ||
			fast.Transmissions != ref.Transmissions ||
			fast.Receptions != ref.Receptions ||
			fast.Collisions != ref.Collisions {
			t.Fatalf("divergence on %s (n=%d kind=%d):\nfast %+v\nref  %+v",
				p.Name(), n, kind%5, fast, ref)
		}
		if eng := runner.Counters(); eng != refCounters {
			t.Fatalf("counter divergence on %s (n=%d kind=%d):\nengine    %+v\nreference %+v",
				p.Name(), n, kind%5, eng, refCounters)
		}
		for v := range fast.InformedAt {
			if fast.InformedAt[v] != ref.InformedAt[v] {
				t.Fatalf("%s: InformedAt[%d] = %d (optimized) vs %d (reference)",
					p.Name(), v, fast.InformedAt[v], ref.InformedAt[v])
			}
		}
	})
}
