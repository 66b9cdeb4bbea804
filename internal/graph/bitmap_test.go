package graph

import (
	"testing"

	"adhocradio/internal/bitset"
	"adhocradio/internal/rng"
)

// checkBitmapMirrors asserts the bitmap rows agree bit-for-bit with the
// slice adjacency: bit v of row u set iff the arc u->v exists.
func checkBitmapMirrors(t *testing.T, g *Graph) {
	t.Helper()
	b := g.CompileBitmap()
	if b.NumNodes != g.N() {
		t.Fatalf("NumNodes = %d, want %d", b.NumNodes, g.N())
	}
	if b.WordsPerRow != bitset.Words(g.N()) {
		t.Fatalf("WordsPerRow = %d, want %d", b.WordsPerRow, bitset.Words(g.N()))
	}
	for u := 0; u < g.N(); u++ {
		row := b.OutRow(u)
		if len(row) != b.WordsPerRow {
			t.Fatalf("node %d: row length %d, want %d", u, len(row), b.WordsPerRow)
		}
		if got, want := bitset.OnesCount(row), g.OutDegree(u); got != want {
			t.Fatalf("node %d: row popcount %d, want out-degree %d", u, got, want)
		}
		for _, v := range g.Out(u) {
			if !bitset.Test(row, int(v)) {
				t.Fatalf("node %d: bit %d clear for arc (%d,%d)", u, v, u, v)
			}
		}
	}
}

func TestCompileBitmapMirrorsSliceAdjacency(t *testing.T) {
	src := rng.New(5)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"path", Path(17)},
		{"star", Star(9)},
		{"clique", Clique(8)},
		{"clique64", Clique(64)},   // exactly one word per row
		{"clique65", Clique(65)},   // word-boundary straddle
		{"clique128", Clique(128)}, // exactly two words per row
		{"gnp", GNPConnected(70, 0.2, src)},
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
		t.Run(tc.name, func(t *testing.T) { checkBitmapMirrors(t, tc.g) })
	}
}

// TestCompileBitmapCachesUntilMutation: the bitmap is derived once per
// graph; adding edges to the Builder afterwards leaves it alone, and the
// rebuilt graph derives a bitmap of its own.
func TestCompileBitmapCachesUntilMutation(t *testing.T) {
	b := NewBuilder(6, true)
	for v := 0; v+1 < 6; v++ {
		b.MustAddEdge(v, v+1)
	}
	g := b.MustBuild()
	b1 := g.CompileBitmap()
	if g.CompileBitmap() != b1 {
		t.Fatal("second CompileBitmap did not return the cached bitmap")
	}
	b.MustAddEdge(0, 5)
	h := b.MustBuild()
	if g.CompileBitmap() != b1 || bitset.Test(b1.OutRow(0), 5) {
		t.Fatal("adding to the builder changed an already derived bitmap")
	}
	if b2 := h.CompileBitmap(); b2 == b1 || !bitset.Test(b2.OutRow(5), 0) {
		t.Fatal("rebuilt graph does not carry the new edge in a bitmap of its own")
	}
	checkBitmapMirrors(t, g)
	checkBitmapMirrors(t, h)
}

func TestCompileBitmapConcurrentReaders(t *testing.T) {
	// Frozen graph, many concurrent compilers: must race-cleanly converge on
	// a consistent view (run under -race in the Makefile's race target).
	src := rng.New(13)
	g := GNPConnected(64, 0.2, src)
	done := make(chan *Bitmap, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.CompileBitmap() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if <-done != first {
			t.Fatal("concurrent compilations built different bitmaps")
		}
	}
	checkBitmapMirrors(t, g)
}

func TestBitmapDense(t *testing.T) {
	cases := []struct {
		n, m int
		want bool
	}{
		{0, 0, false},           // empty graph never qualifies
		{1, 0, false},           // 1*0*32 < 1
		{64, 128, true},         // 128*32 = 4096 = 64²
		{64, 127, false},        // just under the floor
		{256, 256 * 255, true},  // clique
		{1024, 4096, false},     // sparse GNP(4/n)
		{100000, 100000, false}, // million-node-scale sparse graph
		{80, 80 * 16, true},     // GNP(0.2) at fuzz scale
	}
	for _, c := range cases {
		if got := BitmapDense(c.n, c.m); got != c.want {
			t.Errorf("BitmapDense(%d, %d) = %v, want %v", c.n, c.m, got, c.want)
		}
	}
}
