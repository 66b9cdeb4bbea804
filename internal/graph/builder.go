package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder collects the edges of a network in insertion order and emits it
// once, as an immutable *Graph whose adjacency lists keep that order.
// AddEdge rejects out-of-range endpoints and self-loops on the spot; Build
// rejects duplicates, reporting the first in insertion order.
type Builder struct {
	n          int
	undirected bool
	us, vs     []int32 // edge endpoints, in insertion order
}

// NewBuilder returns a builder for a graph on nodes 0..n-1. undirected
// selects whether every edge becomes two symmetric arcs.
func NewBuilder(n int, undirected bool) *Builder {
	return &Builder{n: n, undirected: undirected}
}

// Grow reserves room for that many more edges.
func (b *Builder) Grow(edges int) {
	b.us, b.vs = slices.Grow(b.us, edges), slices.Grow(b.vs, edges)
}

// AddEdge records the edge u->v (and v->u when the builder is undirected).
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	return nil
}

// MustAddEdge is AddEdge for generators whose edges are correct by
// construction; it panics on error.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build emits the graph of every edge added so far: a stable counting sort
// by source (and by target for a directed graph's In) into one int32 CSR,
// then a marker pass for duplicates. The builder stays usable.
func (b *Builder) Build() (*Graph, error) {
	n, arcs := b.n, len(b.us)
	if b.undirected {
		arcs *= 2
	}
	if int64(n) >= math.MaxInt32 || int64(arcs) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes and %d arcs exceed int32 adjacency", n, arcs)
	}
	g := &Graph{undirected: b.undirected}
	c := &g.csr
	c.NumNodes = n
	c.OutOff, c.OutAdj = countingSort(n, arcs, b.us, b.vs, b.undirected)
	// An undirected graph's In sequences are its Out sequences.
	c.InOff, c.InAdj = c.OutOff, c.OutAdj
	if !b.undirected {
		c.InOff, c.InAdj = countingSort(n, arcs, b.vs, b.us, false)
	}
	c.MaxOutDeg, c.MaxInDeg = maxDegree(c.OutOff), maxDegree(c.InOff)
	mark := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, w := range c.OutSpan(u) {
			if mark[w] == int32(u+1) {
				return nil, b.duplicateError(b.firstDuplicate())
			}
			mark[w] = int32(u + 1)
		}
	}
	return g, nil
}

// MustBuild is Build for generators whose edges are correct by
// construction; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// countingSort groups the arcs from[i]->to[i] (plus to[i]->from[i] when
// both is set) by source, keeping each source's targets in edge order. It
// fills each source's span backwards, so the offsets double as cursors.
func countingSort(n, arcs int, from, to []int32, both bool) (off, adj []int32) {
	off = make([]int32, n+1)
	for i, u := range from {
		off[u]++
		if both {
			off[to[i]]++
		}
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	adj = make([]int32, arcs)
	for i := len(from) - 1; i >= 0; i-- {
		u, v := from[i], to[i]
		if both {
			off[v]--
			adj[off[v]] = u
		}
		off[u]--
		adj[off[u]] = v
	}
	return off, adj
}

func maxDegree(off []int32) int {
	d := 0
	for v := 0; v+1 < len(off); v++ {
		d = max(d, int(off[v+1]-off[v]))
	}
	return d
}

// firstDuplicate returns the index of the first edge that repeats an
// earlier one (or, undirected, its reverse), or -1: the exact search Build
// runs once its marker pass has seen a duplicate.
func (b *Builder) firstDuplicate() int {
	seen := make(map[[2]int32]bool, len(b.us))
	for i, u := range b.us {
		key := [2]int32{u, b.vs[i]}
		if b.undirected && key[1] < key[0] {
			key = [2]int32{key[1], key[0]}
		}
		if seen[key] {
			return i
		}
		seen[key] = true
	}
	return -1
}

func (b *Builder) duplicateError(i int) error {
	return fmt.Errorf("graph: duplicate edge (%d,%d)", b.us[i], b.vs[i])
}
