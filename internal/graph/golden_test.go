package graph_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"adhocradio"
	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/lowerbound"
)

// adjacencyGolden pins the exact adjacency sequences every generator
// emits. Neighbor-aware protocols and the engine's iteration order observe
// insertion order, so a representation change must reproduce it bit for
// bit; any drift shows up here as a changed digest.
const adjacencyGolden = "testdata/adjacency.golden"

var updateAdjacency = flag.Bool("update-adjacency", false,
	"rewrite "+adjacencyGolden+" from the current generators")

// adjacencyDigest hashes N, the direction flag and every Out(v)/In(v)
// sequence in node order.
func adjacencyDigest(g *graph.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d undirected=%v\n", g.N(), g.Undirected())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "o%d:", v)
		for _, w := range g.Out(v) {
			fmt.Fprintf(h, "%d,", w)
		}
		fmt.Fprintf(h, "\ni%d:", v)
		for _, w := range g.In(v) {
			fmt.Fprintf(h, "%d,", w)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

type goldenCase struct {
	name  string
	build func() (*graph.Graph, error)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, build func() (*graph.Graph, error)) {
		cases = append(cases, goldenCase{name, build})
	}
	ok := func(g *graph.Graph) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return g, nil }
	}
	rnd := func() *adhocradio.Rand { return adhocradio.NewRand(1) }

	// Every Spec kind, small and medium.
	specs := []graph.Spec{
		{Kind: "path", N: 9}, {Kind: "path", N: 300},
		{Kind: "star", N: 9}, {Kind: "star", N: 300},
		{Kind: "clique", N: 9}, {Kind: "clique", N: 120},
		{Kind: "cycle", N: 9}, {Kind: "cycle", N: 300},
		{Kind: "grid", Rows: 3, Cols: 4}, {Kind: "grid", Rows: 17, Cols: 19},
		{Kind: "complete", N: 9, D: 3}, {Kind: "complete", N: 400, D: 6},
		{Kind: "starchain", N: 13, D: 3}, {Kind: "starchain", N: 301, D: 9},
		{Kind: "hypercube", D: 3}, {Kind: "hypercube", D: 8},
		{Kind: "layered", N: 12, D: 3, P: 0.5, Seed: 1}, {Kind: "layered", N: 400, D: 8, P: 0.3, Seed: 1},
		{Kind: "gnp", N: 12, P: 0.3, Seed: 1}, {Kind: "gnp", N: 300, P: 0.05, Seed: 1},
		{Kind: "tree", N: 12, Seed: 1}, {Kind: "tree", N: 300, Seed: 1},
		{Kind: "regular", N: 12, D: 3, Seed: 1}, {Kind: "regular", N: 300, D: 8, Seed: 1},
		{Kind: "disk", N: 12, Seed: 1}, {Kind: "disk", N: 300, Seed: 1},
	}
	for _, s := range specs {
		key, err := s.Canonical()
		if err != nil {
			panic(err)
		}
		add("spec "+key, s.Build)
	}

	// Every root-package generator, small and medium, seed 1.
	for _, n := range []int{10, 257} {
		add(fmt.Sprintf("Path(%d)", n), ok(adhocradio.Path(n)))
		add(fmt.Sprintf("Star(%d)", n), ok(adhocradio.Star(n)))
		add(fmt.Sprintf("Clique(%d)", n/2), ok(adhocradio.Clique(n/2)))
		add(fmt.Sprintf("RandomTree(%d)", n), ok(adhocradio.RandomTree(n, rnd())))
		add(fmt.Sprintf("GNPConnected(%d)", n), ok(adhocradio.GNPConnected(n, 4/float64(n), rnd())))
		add(fmt.Sprintf("UnitDisk(%d)", n), ok(adhocradio.UnitDisk(n, 0.2, rnd())))
		add(fmt.Sprintf("Cycle(%d)", n), func() (*graph.Graph, error) { return adhocradio.Cycle(n) })
		add(fmt.Sprintf("Wheel(%d)", n), func() (*graph.Graph, error) { return adhocradio.Wheel(n) })
		add(fmt.Sprintf("UniformCompleteLayered(%d)", n), func() (*graph.Graph, error) { return adhocradio.UniformCompleteLayered(n, 4) })
		add(fmt.Sprintf("WorstLabelCompleteLayered(%d)", n), func() (*graph.Graph, error) { return adhocradio.WorstLabelCompleteLayered(n, 4) })
		add(fmt.Sprintf("RandomLayered(%d)", n), func() (*graph.Graph, error) { return adhocradio.RandomLayered(n, 4, 0.3, rnd()) })
		add(fmt.Sprintf("DirectedLayered(%d)", n), func() (*graph.Graph, error) { return adhocradio.DirectedLayered(n, 4, 0.3, rnd()) })
		add(fmt.Sprintf("RandomRegular(%d)", n), func() (*graph.Graph, error) { return adhocradio.RandomRegular(n-n%2, 5, rnd()) })
	}
	for _, k := range []int{3, 12} {
		add(fmt.Sprintf("Grid(%d)", k), ok(adhocradio.Grid(k, k+1)))
		add(fmt.Sprintf("StarChain(%d)", k), ok(adhocradio.StarChain(k, k+2)))
		add(fmt.Sprintf("Caterpillar(%d)", k), ok(adhocradio.Caterpillar(k, 3)))
		add(fmt.Sprintf("CompleteBinaryTree(%d)", k/2+1), func() (*graph.Graph, error) { return adhocradio.CompleteBinaryTree(k/2 + 1) })
		add(fmt.Sprintf("Hypercube(%d)", k/2+1), func() (*graph.Graph, error) { return adhocradio.Hypercube(k/2 + 1) })
		add(fmt.Sprintf("Barbell(%d)", k), func() (*graph.Graph, error) { return adhocradio.Barbell(k, k/2+1) })
		add(fmt.Sprintf("CompleteLayeredNetwork(%d)", k), func() (*graph.Graph, error) {
			return adhocradio.CompleteLayeredNetwork([]int{k, 1, k + 2, 2})
		})
	}

	// An edge-list round trip keeps the file's edge order.
	add("ReadEdgeList(gnp)", func() (*graph.Graph, error) {
		var buf bytes.Buffer
		if err := adhocradio.GNPConnected(60, 0.1, rnd()).WriteEdgeList(&buf); err != nil {
			return nil, err
		}
		return graph.ReadEdgeList(&buf)
	})

	// Both lowerbound constructions, small and medium.
	for _, p := range []lowerbound.Params{{N: 128, D: 8, Force: true}, {N: 256, D: 16, Force: true}} {
		add(fmt.Sprintf("lowerbound.Build(%d,%d)", p.N, p.D), func() (*graph.Graph, error) {
			c, err := lowerbound.Build(det.RoundRobin{}, p)
			if err != nil {
				return nil, err
			}
			return c.G, nil
		})
	}
	for _, p := range []lowerbound.DirectedParams{{N: 64, D: 4}, {N: 256, D: 8}} {
		add(fmt.Sprintf("lowerbound.BuildDirectedLayered(%d,%d)", p.N, p.D), func() (*graph.Graph, error) {
			c, err := lowerbound.BuildDirectedLayered(det.ObliviousDecay{Seed: 1}, p)
			if err != nil {
				return nil, err
			}
			return c.G, nil
		})
	}
	return cases
}

func TestAdjacencyGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		g, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", c.name, adjacencyDigest(g))
	}
	got := b.String()
	if *updateAdjacency {
		if err := os.WriteFile(adjacencyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(adjacencyGolden)
	if err != nil {
		t.Fatalf("missing golden %s (rerun with -update-adjacency): %v", adjacencyGolden, err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("golden has %d lines, generators produced %d", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("adjacency drift:\n  golden:  %s\n  current: %s", wantLines[i], gotLines[i])
		}
	}
}
