package graph

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"adhocradio/internal/rng"
)

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder(3, true)
	cases := []struct {
		u, v int
		want string
	}{
		{-1, 0, "out of range"},
		{0, 3, "out of range"},
		{1, 1, "self-loop"},
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("AddEdge(%d,%d) err = %v, want containing %q", c.u, c.v, err, c.want)
		}
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatalf("rejected edges leaked into the builder: %v", err)
	}
	dup := NewBuilder(3, true)
	dup.MustAddEdge(0, 1)
	dup.MustAddEdge(1, 2)
	dup.MustAddEdge(0, 1)
	if _, err := dup.Build(); err == nil || err.Error() != "graph: duplicate edge (0,1)" {
		t.Fatalf("duplicate edge: Build err = %v", err)
	}
	rev := NewBuilder(3, true)
	rev.MustAddEdge(0, 1)
	rev.MustAddEdge(1, 0)
	if _, err := rev.Build(); err == nil || err.Error() != "graph: duplicate edge (1,0)" {
		t.Fatalf("reverse of undirected edge: Build err = %v", err)
	}
	directed := NewBuilder(3, false)
	directed.MustAddEdge(0, 1)
	directed.MustAddEdge(1, 0)
	if _, err := directed.Build(); err != nil {
		t.Fatalf("directed antiparallel arcs rejected: %v", err)
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	b := NewBuilder(4, true)
	b.MustAddEdge(0, 2)
	g := b.MustBuild()
	if !g.HasEdge(2, 0) || !g.HasEdge(0, 2) {
		t.Fatal("undirected edge not symmetric")
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatal("degree bookkeeping wrong")
	}
	if g.Edges() != 2 {
		t.Fatalf("Edges() = %d, want 2 arcs", g.Edges())
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	b := NewBuilder(3, false)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph created reverse arc")
	}
	if g.InDegree(1) != 1 || g.OutDegree(1) != 0 {
		t.Fatal("in/out mixed up")
	}
}

func TestBFSAndRadius(t *testing.T) {
	g := Path(5)
	dist, reach := g.BFSLayers()
	if reach != 5 {
		t.Fatalf("reachable = %d", reach)
	}
	for v, d := range dist {
		if d != v {
			t.Fatalf("dist[%d] = %d", v, d)
		}
	}
	r, err := g.Radius()
	if err != nil || r != 4 {
		t.Fatalf("Radius = %d, %v", r, err)
	}
}

func TestRadiusUnreachable(t *testing.T) {
	b := NewBuilder(3, true)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	if _, err := g.Radius(); err == nil {
		t.Fatal("Radius on disconnected graph did not error")
	}
	if err := g.Validate(); !errors.Is(err, ErrNotBroadcastable) {
		t.Fatalf("Validate = %v, want ErrNotBroadcastable", err)
	}
}

func TestLayers(t *testing.T) {
	g, err := CompleteLayered([]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 3 {
		t.Fatalf("got %d layers", len(layers))
	}
	if len(layers[0]) != 1 || layers[0][0] != 0 {
		t.Fatalf("layer 0 = %v", layers[0])
	}
	if len(layers[1]) != 3 || len(layers[2]) != 2 {
		t.Fatalf("layer sizes %d,%d", len(layers[1]), len(layers[2]))
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(4)
	// Corrupt: redirect node 1's arc to 2 at 3, so 1->3 has no reverse.
	c := g.Compile()
	c.OutAdj[c.OutOff[1]+1] = 3
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric corruption")
	}
}

func TestIsCompleteLayered(t *testing.T) {
	g, err := CompleteLayered([]int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.IsCompleteLayered()
	if err != nil || !ok {
		t.Fatalf("complete layered not recognized: %v %v", ok, err)
	}
	// A path of length >= 3 is NOT complete layered only when some layer has
	// >1 node; a pure path IS complete layered (all layers singletons). Test
	// a genuinely non-layered graph: layered plus a skip edge.
	b := NewBuilder(5, true)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {0, 3}} {
		b.MustAddEdge(e[0], e[1]) // CompleteLayered([]int{2, 2}) plus a skip into layer 2
	}
	h := b.MustBuild()
	ok, err = h.IsCompleteLayered()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("graph with skip edge recognized as complete layered")
	}
}

func TestPathIsCompleteLayered(t *testing.T) {
	ok, err := Path(6).IsCompleteLayered()
	if err != nil || !ok {
		t.Fatalf("path should be complete layered: %v %v", ok, err)
	}
}

func TestCompleteLayeredErrors(t *testing.T) {
	if _, err := CompleteLayered([]int{2, 0, 1}); err == nil {
		t.Fatal("zero layer size accepted")
	}
}

func TestLayerSizesForRadius(t *testing.T) {
	sizes, err := LayerSizesForRadius(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			t.Fatalf("empty layer in %v", sizes)
		}
		total += s
	}
	if total != 9 || len(sizes) != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	if _, err := LayerSizesForRadius(3, 5); err == nil {
		t.Fatal("impossible split accepted")
	}
	if _, err := LayerSizesForRadius(3, 0); err == nil {
		t.Fatal("zero layers accepted")
	}
}

func TestStarAndClique(t *testing.T) {
	s := Star(8)
	if r, _ := s.Radius(); r != 1 {
		t.Fatal("star radius != 1")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Clique(6)
	if r, _ := c.Radius(); r != 1 {
		t.Fatal("clique radius != 1")
	}
	if c.Edges() != 6*5 {
		t.Fatalf("clique arcs = %d", c.Edges())
	}
}

func TestRandomTreeConnectedAndAcyclic(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 2, 3, 4, 10, 100, 500} {
		g := RandomTree(n, src)
		if g.Edges() != 2*(n-1) && n > 0 {
			if !(n == 1 && g.Edges() == 0) {
				t.Fatalf("n=%d tree has %d arcs", n, g.Edges())
			}
		}
		if n > 0 {
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestRandomTreeDistribution(t *testing.T) {
	// All 3 labelled trees on 3 nodes should appear.
	src := rng.New(2)
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		g := RandomTree(3, src)
		key := ""
		for v := 0; v < 3; v++ {
			out := slices.Clone(g.Out(v))
			slices.Sort(out)
			for _, w := range out {
				if int(w) > v {
					key += string(rune('a'+v)) + string(rune('a'+w))
				}
			}
		}
		seen[key]++
	}
	if len(seen) != 3 {
		t.Fatalf("only %d of 3 labelled trees seen: %v", len(seen), seen)
	}
}

func TestGNPConnected(t *testing.T) {
	src := rng.New(3)
	for _, p := range []float64{0, 0.01, 0.3} {
		g := GNPConnected(50, p, src)
		if err := g.Validate(); err != nil {
			t.Fatalf("p=%f: %v", p, err)
		}
	}
}

func TestRandomLayeredRadius(t *testing.T) {
	src := rng.New(4)
	for _, tc := range []struct{ n, d int }{{20, 4}, {100, 10}, {64, 63}, {30, 1}} {
		g, err := RandomLayered(tc.n, tc.d, 0.3, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		r, err := g.Radius()
		if err != nil || r != tc.d {
			t.Fatalf("n=%d d=%d: radius %d (%v)", tc.n, tc.d, r, err)
		}
	}
}

func TestDirectedLayeredRadius(t *testing.T) {
	src := rng.New(5)
	g, err := DirectedLayered(60, 6, 0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Radius()
	if err != nil || r != 6 {
		t.Fatalf("radius %d (%v)", r, err)
	}
	if g.Undirected() {
		t.Fatal("DirectedLayered returned undirected graph")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	r, err := g.Radius()
	if err != nil || r != 3+4 {
		t.Fatalf("radius %d (%v)", r, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitDiskAlwaysBroadcastable(t *testing.T) {
	src := rng.New(6)
	for _, radius := range []float64{0.01, 0.1, 0.5} {
		g := UnitDisk(60, radius, src)
		if err := g.Validate(); err != nil {
			t.Fatalf("radius %f: %v", radius, err)
		}
	}
}

func TestStarChain(t *testing.T) {
	g := StarChain(3, 5)
	if g.N() != 1+3*6 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := g.Radius()
	if err != nil || r != 6 { // two hops per stage
		t.Fatalf("radius %d (%v)", r, err)
	}
	// The final hub has in-degree w (5) plus none beyond.
	lastHub := g.N() - 1
	if g.InDegree(lastHub) != 5 {
		t.Fatalf("last hub in-degree %d", g.InDegree(lastHub))
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 2)
	if g.N() != 5+8 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Path(3).Stats()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "radius=2") {
		t.Fatalf("Stats = %q", s)
	}
	g := edgeless(2, true) // disconnected
	if !strings.Contains(g.Stats(), "∞") {
		t.Fatalf("Stats = %q", g.Stats())
	}
}

func TestBuilderKeepsInsertionOrder(t *testing.T) {
	b := NewBuilder(4, true)
	b.MustAddEdge(0, 3)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(3, 1)
	g := b.MustBuild()
	for v, want := range [][]int32{{3, 2, 1}, {0, 3}, {0}, {0, 1}} {
		if !slices.Equal(g.Out(v), want) || !slices.Equal(g.In(v), want) {
			t.Fatalf("node %d: Out %v In %v, want %v", v, g.Out(v), g.In(v), want)
		}
	}
	d := NewBuilder(3, false)
	d.MustAddEdge(2, 1)
	d.MustAddEdge(0, 1)
	d.MustAddEdge(1, 0)
	dg := d.MustBuild()
	if !slices.Equal(dg.In(1), []int32{2, 0}) || !slices.Equal(dg.Out(1), []int32{0}) {
		t.Fatalf("directed: In(1) %v Out(1) %v", dg.In(1), dg.Out(1))
	}
}
