package radio

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"adhocradio/internal/bitset"
	"adhocradio/internal/fault"
	"adhocradio/internal/graph"
	"adhocradio/internal/rng"
)

// Simulator micro-benchmarks: per-step cost under light (sparse
// transmitters) and heavy (everyone transmits) load, engine reuse, the
// relative cost of the reference oracle, and the CSR-vs-slice adjacency
// tally kernel. Every benchmark reports ns/step next to ns/op so runs with
// different step budgets stay comparable.

// reportSteps attaches the per-step cost metric; call after the timed loop.
func reportSteps(b *testing.B, totalSteps int) {
	b.Helper()
	if totalSteps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
	}
}

func benchRun(b *testing.B, g *graph.Graph, p Protocol, maxSteps int) {
	b.Helper()
	benchRunFaults(b, g, p, maxSteps, nil)
}

// benchRunFaults is benchRun under a fault plan.
func benchRunFaults(b *testing.B, g *graph.Graph, p Protocol, maxSteps int, plan *fault.Plan) {
	b.Helper()
	b.ReportAllocs()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		// Fixed step budget: measure per-step cost; the protocol may well
		// be incomplete at the cap.
		res, err := Run(g, p, Config{Seed: uint64(i + 1)},
			Options{MaxSteps: maxSteps, RunToMaxSteps: true, Fault: plan})
		if err != nil && !errors.Is(err, ErrStepLimit) {
			b.Fatal(err)
		}
		if res == nil || res.StepsSimulated == 0 {
			b.Fatal("no steps")
		}
		totalSteps += res.StepsSimulated
	}
	reportSteps(b, totalSteps)
}

func BenchmarkSimulatorSparseLoad(b *testing.B) {
	src := rng.New(1)
	g := graph.GNPConnected(1024, 4.0/1024, src)
	benchRun(b, g, coin{}, 200)
}

// BenchmarkSimulatorCoinLoad is the engine's coin path on the shape of the
// steps-clean benchmark's dominant trial (KP on RandomLayered(2048, 128,
// 0.3)): a Decay-like coin protocol whose schedule the engine resolves once
// per step, drawing every informed node's coin from a flat stream array.
func BenchmarkSimulatorCoinLoad(b *testing.B) {
	g, err := graph.RandomLayered(2048, 128, 0.3, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, g, ladderCoin{k: 12}, 400)
}

// BenchmarkSimulatorNodeFaults is a crash-only plan (E17's shape: GNP(512)
// of mean degree 6, a fifth of the nodes crashing within n steps) under the
// coin protocol: node-only plans take the fault-free tallies and drop down
// receivers at delivery.
func BenchmarkSimulatorNodeFaults(b *testing.B) {
	g := graph.GNPConnected(512, 6.0/512, rng.New(4))
	plan := &fault.Plan{Seed: 5, CrashFrac: 0.2, CrashWindow: 512}
	benchRunFaults(b, g, ladderCoin{k: 10}, 1000, plan)
}

// BenchmarkSimulatorDenseLoad is the dense saturation workload: every step
// floods ~256 transmitters over 65k arcs with nil payloads, the shape of
// every tally-bound trial in the experiment harness. Nil payloads keep the
// run on the allNil fast path, where the bit-parallel bitset kernel is
// eligible — the payload-bearing variant of the same workload is
// BenchmarkSimulatorDensePayloadLoad below.
func BenchmarkSimulatorDenseLoad(b *testing.B) {
	g := graph.Clique(256)
	benchRun(b, g, nilFlood{}, 50)
}

// BenchmarkSimulatorDensePayloadLoad is DenseLoad with a payload attached
// to every transmission: allNil is false, so this pins the cost of the
// dense scalar tally path (the bitset kernel is payload-fast-path-only).
func BenchmarkSimulatorDensePayloadLoad(b *testing.B) {
	g := graph.Clique(256)
	benchRun(b, g, flood{}, 50)
}

// BenchmarkSimulatorRunnerReuse is the steady-state trial loop the
// experiment engine runs: one Runner, one Result, many trials on the same
// graph. With a protocol whose programs are zero-size and payloads nil, the
// allocs/op column is the engine's own steady-state allocation count — the
// tentpole target is 0.
func BenchmarkSimulatorRunnerReuse(b *testing.B) {
	g := graph.Clique(256)
	r := NewRunner()
	var res Result
	if err := r.RunInto(&res, g, nilFlood{}, Config{}, Options{MaxSteps: 50, RunToMaxSteps: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(&res, g, nilFlood{}, Config{}, Options{MaxSteps: 50, RunToMaxSteps: true}); err != nil {
			b.Fatal(err)
		}
		totalSteps += res.StepsSimulated
	}
	reportSteps(b, totalSteps)
}

func BenchmarkSimulatorVsReference(b *testing.B) {
	src := rng.New(2)
	g := graph.GNPConnected(256, 0.05, src)
	// Fixed step budget: this measures per-step cost, not completion (the
	// coin protocol can stall on high-degree nodes).
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		totalSteps := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(g, coin{}, Config{Seed: 7},
				Options{MaxSteps: 300, RunToMaxSteps: true})
			if err != nil && !errors.Is(err, ErrStepLimit) {
				b.Fatal(err)
			}
			totalSteps += res.StepsSimulated
		}
		reportSteps(b, totalSteps)
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		totalSteps := 0
		for i := 0; i < b.N; i++ {
			// The reference stops with ErrStepLimit at the budget; that is
			// the expected outcome here.
			res, err := RunReference(g, coin{}, Config{Seed: 7}, 300)
			if err != nil && !errors.Is(err, ErrStepLimit) {
				b.Fatal(err)
			}
			totalSteps += res.StepsSimulated
		}
		reportSteps(b, totalSteps)
	})
}

// The dense tally kernel, isolated: every node transmits on a clique, and
// the benchmark measures only phase 2 — counting hits over the adjacency.
// The CSR variant walks the compiled flat int32 arrays exactly as the
// engine's dense path does; the slice variant is the pre-CSR hot loop
// (pointer-chasing [][]int plus first-touch dirty tracking), kept here as
// the comparison baseline.

// benchTallyDenseCSR times the engine's dense scalar tally (branch-free
// per-arc counters plus full clear) with the given transmitter set.
func benchTallyDenseCSR(b *testing.B, g *graph.Graph, transmitters []int) {
	b.Helper()
	csr := g.Compile()
	n := g.N()
	hits := make([]int32, n)
	lastFrom := make([]int32, n)
	outOff, outAdj := csr.OutOff, csr.OutAdj
	b.ReportAllocs()
	b.ResetTimer()
	for bi := 0; bi < b.N; bi++ {
		for i, u := range transmitters {
			for _, v := range outAdj[outOff[u]:outOff[u+1]] {
				hits[v]++
				lastFrom[v] = int32(i)
			}
		}
		for v := 0; v < n; v++ {
			hits[v] = 0
		}
	}
	_ = lastFrom
}

// benchTallyBitset times the bit-parallel tally exactly as tallyBitset runs
// it: two-plane accumulation over the cached bitmap rows, listener-only
// mask reduction, the scalar lastFrom second pass over exactly-one words,
// and the plane clear.
func benchTallyBitset(b *testing.B, g *graph.Graph, transmitters []int) {
	b.Helper()
	bm := g.CompileBitmap()
	n := g.N()
	words := bitset.Words(n)
	once := make([]uint64, words)
	twice := make([]uint64, words)
	tx := make([]uint64, words)
	lastFrom := make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for bi := 0; bi < b.N; bi++ {
		for _, u := range transmitters {
			bitset.AccumulateTwoPlane(once, twice, bm.OutRow(u))
			bitset.Mark(tx, u)
		}
		for w := range once {
			once[w] &^= twice[w] | tx[w]
			twice[w] &^= tx[w]
		}
		for i, u := range transmitters {
			row := bm.OutRow(u)
			for w, rw := range row {
				m := rw & once[w]
				for m != 0 {
					lastFrom[w<<6+bits.TrailingZeros64(m)] = int32(i)
					m &= m - 1
				}
			}
		}
		bitset.Zero(once)
		bitset.Zero(twice)
		bitset.Zero(tx)
	}
	_ = lastFrom
}

// allTransmitters returns 0..n-1: the saturation transmitter set.
func allTransmitters(n int) []int {
	tr := make([]int, n)
	for v := range tr {
		tr[v] = v
	}
	return tr
}

func BenchmarkTallyDenseCSR(b *testing.B) {
	g := graph.Clique(256)
	benchTallyDenseCSR(b, g, allTransmitters(256))
}

// BenchmarkTallyBitset is BenchmarkTallyDenseCSR through the bit-parallel
// kernel: same clique, same saturation transmitter set, 64 receivers per
// word op instead of one per scalar op.
func BenchmarkTallyBitset(b *testing.B) {
	g := graph.Clique(256)
	benchTallyBitset(b, g, allTransmitters(256))
}

// BenchmarkTallyCrossover sweeps mean degree on a fixed node count with
// every node transmitting, pairing the dense scalar tally with the bitset
// kernel at each density. Per transmitter the scalar path costs ~out-degree
// ops and the kernel ~O(words) ops, so the crossover is a pure
// degree-vs-words ratio — this sweep is the measurement behind
// bitsetArcFactor (table in DESIGN.md).
func BenchmarkTallyCrossover(b *testing.B) {
	const n = 512
	src := rng.New(99)
	for _, deg := range []int{8, 16, 32, 64, 128, 511} {
		var g *graph.Graph
		if deg == 511 {
			g = graph.Clique(n)
		} else {
			g = graph.GNPConnected(n, float64(deg)/float64(n-1), src)
		}
		tr := allTransmitters(n)
		b.Run(fmt.Sprintf("deg%d/csr", deg), func(b *testing.B) {
			benchTallyDenseCSR(b, g, tr)
		})
		b.Run(fmt.Sprintf("deg%d/bitset", deg), func(b *testing.B) {
			benchTallyBitset(b, g, tr)
		})
	}
}

// BenchmarkTallyDenseSlice is the pre-CSR tally shape BenchmarkTallyDenseCSR
// is measured against: per-node []int adjacency spines and a dirty list.
func BenchmarkTallyDenseSlice(b *testing.B) {
	g := graph.Clique(256)
	n := g.N()
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = g.OutList(v)
	}
	hits := make([]int32, n)
	lastFrom := make([]int32, n)
	dirty := make([]int, 0, n)
	transmitters := make([]int, n)
	for v := range transmitters {
		transmitters[v] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for bi := 0; bi < b.N; bi++ {
		for i, u := range transmitters {
			for _, v := range adj[u] {
				if hits[v] == 0 {
					dirty = append(dirty, v)
				}
				hits[v]++
				if hits[v] == 1 {
					lastFrom[v] = int32(i)
				}
			}
		}
		for _, v := range dirty {
			hits[v] = 0
		}
		dirty = dirty[:0]
	}
	_ = lastFrom
}
