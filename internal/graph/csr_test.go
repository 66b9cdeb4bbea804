package graph

import (
	"slices"
	"testing"

	"adhocradio/internal/rng"
)

// checkCSRMirrors asserts the CSR agrees with the Graph accessors, that
// every out-arc appears in its target's in-list (and only there), and that
// the recorded maximum degrees are right.
func checkCSRMirrors(t *testing.T, g *Graph) {
	t.Helper()
	c := g.Compile()
	if c.NumNodes != g.N() {
		t.Fatalf("NumNodes = %d, want %d", c.NumNodes, g.N())
	}
	if c.Arcs() != g.Edges() || len(c.InAdj) != g.Edges() {
		t.Fatalf("Arcs = %d, InAdj = %d, want %d", c.Arcs(), len(c.InAdj), g.Edges())
	}
	maxOut, maxIn := 0, 0
	inArcs := map[[2]int32]int{}
	for v := 0; v < g.N(); v++ {
		out, in := g.Out(v), g.In(v)
		if !slices.Equal(out, c.OutSpan(v)) || c.OutDegree(v) != len(out) || g.OutDegree(v) != len(out) {
			t.Fatalf("node %d: Out %v, OutSpan %v", v, out, c.OutSpan(v))
		}
		if !slices.Equal(in, c.InSpan(v)) || g.InDegree(v) != len(in) {
			t.Fatalf("node %d: In %v, InSpan %v", v, in, c.InSpan(v))
		}
		if g.Undirected() && !slices.Equal(in, out) {
			t.Fatalf("undirected node %d: In %v differs from Out %v", v, in, out)
		}
		for _, u := range in {
			inArcs[[2]int32{u, int32(v)}]++
		}
		maxOut = max(maxOut, len(out))
		maxIn = max(maxIn, len(in))
	}
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Out(u) {
			if inArcs[[2]int32{int32(u), w}] != 1 {
				t.Fatalf("arc (%d,%d) listed %d times among in-lists", u, w, inArcs[[2]int32{int32(u), w}])
			}
		}
	}
	if c.MaxOutDeg != maxOut || c.MaxInDeg != maxIn {
		t.Fatalf("MaxOutDeg/MaxInDeg = %d/%d, want %d/%d", c.MaxOutDeg, c.MaxInDeg, maxOut, maxIn)
	}
}

// edgeless returns the graph on n nodes with no edges.
func edgeless(n int, undirected bool) *Graph { return NewBuilder(n, undirected).MustBuild() }

func TestCompileMirrorsSliceAdjacency(t *testing.T) {
	src := rng.New(3)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"path", Path(17)},
		{"star", Star(9)},
		{"clique", Clique(8)},
		{"gnp", GNPConnected(40, 0.15, src)},
		{"tree", RandomTree(33, src)},
		{"empty", edgeless(5, true)},
		{"single", edgeless(1, false)},
	}
	if g, err := DirectedLayered(40, 5, 0.3, src); err == nil {
		graphs = append(graphs, struct {
			name string
			g    *Graph
		}{"directed", g})
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) { checkCSRMirrors(t, tc.g) })
	}
}

// TestCompileCachesUntilMutation: a graph's CSR is its own storage, so
// Compile always returns the same one; the only mutation left is adding
// edges to the Builder, which leaves built graphs untouched and gives the
// next Build a CSR of its own.
func TestCompileCachesUntilMutation(t *testing.T) {
	b := NewBuilder(6, true)
	for v := 0; v+1 < 6; v++ {
		b.MustAddEdge(v, v+1)
	}
	g := b.MustBuild()
	c1 := g.Compile()
	if g.Compile() != c1 {
		t.Fatal("second Compile did not return the stored CSR")
	}
	if &c1.OutAdj[0] != &c1.InAdj[0] || &c1.OutOff[0] != &c1.InOff[0] {
		t.Fatal("undirected graph stores In and Out separately")
	}
	b.MustAddEdge(0, 5)
	h := b.MustBuild()
	if g.Compile() != c1 || g.Edges() != 10 || g.HasEdge(0, 5) {
		t.Fatal("adding to the builder changed an already built graph")
	}
	if h.Compile() == c1 || !h.HasEdge(5, 0) {
		t.Fatal("rebuilt graph does not carry the new edge in a CSR of its own")
	}
	checkCSRMirrors(t, g)
	checkCSRMirrors(t, h)
	d, err := DirectedLayered(20, 3, 0.3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkCSRMirrors(t, d)
}

func TestCompileConcurrentReaders(t *testing.T) {
	// Frozen graph, many concurrent compilers: must race-cleanly converge on
	// a consistent view (run under -race in the Makefile's race target).
	src := rng.New(11)
	g := GNPConnected(64, 0.1, src)
	done := make(chan *CSR, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.Compile() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if <-done != first {
			t.Fatal("concurrent readers got different CSRs")
		}
	}
	checkCSRMirrors(t, g)
}
