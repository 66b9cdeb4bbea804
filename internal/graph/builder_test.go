package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// refGraph is the naive reference FuzzBuilder checks the Builder against:
// per-node []int adjacency where every AddEdge validates against the lists
// built so far and rejects a bad edge on the spot.
type refGraph struct {
	n          int
	undirected bool
	out, in    [][]int
}

func newRefGraph(n int, undirected bool) *refGraph {
	return &refGraph{n: n, undirected: undirected, out: make([][]int, n), in: make([][]int, n)}
}

func (r *refGraph) addEdge(u, v int) error {
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, r.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if slices.Contains(r.out[u], v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	r.out[u] = append(r.out[u], v)
	r.in[v] = append(r.in[v], u)
	if r.undirected {
		r.out[v] = append(r.out[v], u)
		r.in[u] = append(r.in[u], v)
	}
	return nil
}

func ints(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// FuzzBuilder feeds arbitrary arc sequences — self-loops, duplicates,
// reversed duplicates and out-of-range labels included — to the Builder
// and to the reference. AddEdge must reject range and self-loop errors with
// the reference's message; Build must then fail with the reference's first
// duplicate message, or emit exactly the reference's adjacency sequences.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(4), true, []byte{2, 3, 3, 4, 2, 4})
	f.Add(uint8(4), false, []byte{2, 3, 3, 2, 3, 2})
	f.Add(uint8(3), true, []byte{2, 2, 0, 2, 9, 2})
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(12), true, []byte{2, 5, 5, 7, 7, 2, 3, 4, 4, 3})
	f.Fuzz(func(t *testing.T, nb uint8, undirected bool, arcs []byte) {
		n := int(nb % 13)
		ref := newRefGraph(n, undirected)
		b := NewBuilder(n, undirected)
		var firstDup error
		for i := 0; i+1 < len(arcs); i += 2 {
			// Labels in [-2, 13]: both sides of every range.
			u, v := int(arcs[i]%16)-2, int(arcs[i+1]%16)-2
			refErr := ref.addEdge(u, v)
			err := b.AddEdge(u, v)
			switch {
			case refErr == nil:
				if err != nil {
					t.Fatalf("AddEdge(%d,%d) = %v, reference accepted", u, v, err)
				}
			case u == v || u < 0 || v < 0 || u >= n || v >= n:
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("AddEdge(%d,%d) = %v, want %v", u, v, err, refErr)
				}
			default: // duplicate: recorded now, reported by Build
				if err != nil {
					t.Fatalf("AddEdge(%d,%d) = %v on a duplicate, want it deferred", u, v, err)
				}
				if firstDup == nil {
					firstDup = refErr
				}
			}
		}
		g, err := b.Build()
		if firstDup != nil {
			if err == nil || err.Error() != firstDup.Error() {
				t.Fatalf("Build = %v, want %v", err, firstDup)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build = %v, reference accepted every edge", err)
		}
		if g.N() != n || g.Undirected() != undirected {
			t.Fatalf("N/Undirected = %d/%v, want %d/%v", g.N(), g.Undirected(), n, undirected)
		}
		for v := 0; v < n; v++ {
			if got := ints(g.Out(v)); !slices.Equal(got, ref.out[v]) {
				t.Fatalf("Out(%d) = %v, want %v", v, got, ref.out[v])
			}
			if got := ints(g.In(v)); !slices.Equal(got, ref.in[v]) {
				t.Fatalf("In(%d) = %v, want %v", v, got, ref.in[v])
			}
		}
		checkCSRMirrors(t, g)
		if err := g.Validate(); err != nil && !errors.Is(err, ErrNotBroadcastable) {
			t.Fatalf("Validate = %v", err)
		}
	})
}

func TestBuildIsRepeatable(t *testing.T) {
	b := NewBuilder(3, true)
	b.MustAddEdge(0, 1)
	first := b.MustBuild()
	b.MustAddEdge(1, 2)
	second := b.MustBuild()
	if first.Edges() != 2 || second.Edges() != 4 {
		t.Fatalf("snapshots have %d and %d arcs, want 2 and 4", first.Edges(), second.Edges())
	}
	if err := first.Validate(); !errors.Is(err, ErrNotBroadcastable) {
		t.Fatalf("first snapshot changed by later edges: Validate = %v", err)
	}
}

func TestValidateAllocatesOnce(t *testing.T) {
	g, err := UniformCompleteLayered(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := NewBuilder(g.N(), false)
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Out(u) {
			if int(w) > u {
				d.MustAddEdge(u, int(w))
			}
		}
	}
	directed := d.MustBuild()
	for _, h := range []*Graph{g, directed} {
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { _ = h.Validate() }); allocs > 1 {
			t.Fatalf("undirected=%v: Validate allocates %.0f times, want 1", h.Undirected(), allocs)
		}
	}
}
