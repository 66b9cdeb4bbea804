package graph

import (
	"fmt"
	"math"
	"slices"

	"adhocradio/internal/rng"
)

// Cycle returns the n-node cycle (n >= 3), source at node 0, radius ⌊n/2⌋.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := NewBuilder(n, true)
	for v := 0; v < n; v++ {
		b.MustAddEdge(v, (v+1)%n)
	}
	return b.MustBuild(), nil
}

// Wheel returns the n-node wheel: a hub (the source) connected to an
// (n-1)-cycle. Radius 1, but high contention everywhere.
func Wheel(n int) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graph: wheel needs n >= 4, got %d", n)
	}
	b := NewBuilder(n, true)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		b.MustAddEdge(v, next)
	}
	return b.MustBuild(), nil
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (level 1 = the root/source alone); n = 2^levels - 1.
func CompleteBinaryTree(levels int) (*Graph, error) {
	if levels < 1 || levels > 30 {
		return nil, fmt.Errorf("graph: binary tree levels %d out of range", levels)
	}
	n := 1<<levels - 1
	b := NewBuilder(n, true)
	for v := 0; 2*v+1 < n; v++ {
		b.MustAddEdge(v, 2*v+1)
		if 2*v+2 < n {
			b.MustAddEdge(v, 2*v+2)
		}
	}
	return b.MustBuild(), nil
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes; node v
// and w are adjacent iff their labels differ in exactly one bit. Radius =
// dim, degree = dim: the classic low-diameter sparse benchmark.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 24 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of range", dim)
	}
	n := 1 << dim
	b := NewBuilder(n, true)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.MustBuild(), nil
}

// Barbell returns two cliques of size k joined by a path of length bridge
// (bridge >= 1 edges): a bottleneck topology where a single relay chain
// throttles the broadcast. n = 2k + bridge - 1.
func Barbell(k, bridge int) (*Graph, error) {
	if k < 2 || bridge < 1 {
		return nil, fmt.Errorf("graph: barbell needs k >= 2, bridge >= 1 (got %d, %d)", k, bridge)
	}
	n := 2*k + bridge - 1
	b := NewBuilder(n, true)
	// Left clique on 0..k-1 (source inside).
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.MustAddEdge(u, v)
		}
	}
	// Path from node k-1 through k..k+bridge-2 to the right clique's first
	// node k+bridge-1.
	prev := k - 1
	for v := k; v <= k+bridge-1; v++ {
		b.MustAddEdge(prev, v)
		prev = v
	}
	// Right clique on k+bridge-1 .. n-1.
	for u := k + bridge - 1; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.MustBuild(), nil
}

// RandomRegular returns a connected random d-regular graph on n nodes
// (n·d must be even, d < n). It pairs stubs as in the configuration model
// and repairs self-loops and multi-edges with degree-preserving edge swaps,
// retrying the whole construction if repair stalls or the result is
// disconnected. For d >= 3 almost every repaired sample is connected.
func RandomRegular(n, d int, src *rng.Source) (*Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: degree %d out of range for n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n·d = %d·%d is odd", n, d)
	}
	if int64(n)*int64(d) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d-regular graph on %d nodes exceeds int32 adjacency", d, n)
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryConfigurationModel(n, d, src)
		if !ok {
			continue
		}
		if _, reachable := g.BFSLayers(); reachable == n {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected simple %d-regular graph found after %d attempts", d, maxAttempts)
}

// tryConfigurationModel pairs n·d stubs uniformly, then repairs invalid
// pairs (self-loops, duplicates) by swapping with random valid pairs.
//
// Node v's neighbors live in adj[v*d : v*d+deg[v]]: no node ever holds more
// than d, and a repaired sample has exactly d each, so the staging array is
// already the finished graph's CSR. Removal swaps with the last neighbor,
// which the random edge picks observe.
func tryConfigurationModel(n, d int, src *rng.Source) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	src.Shuffle(stubs)
	adj := make([]int32, n*d)
	deg := make([]int, n)
	list := func(v int) []int32 { return adj[v*d : v*d+deg[v]] }
	has := func(u, v int) bool { return slices.Contains(list(u), int32(v)) }
	arc := func(u, v int) {
		adj[u*d+deg[u]] = int32(v)
		deg[u]++
	}
	unarc := func(u, v int) { // swap-with-last
		l := list(u)
		l[slices.Index(l, int32(v))] = l[len(l)-1]
		deg[u]--
	}
	var bad [][2]int
	for i := 0; i < len(stubs); i += 2 {
		if u, v := stubs[i], stubs[i+1]; u != v && !has(u, v) {
			arc(u, v)
			arc(v, u)
		} else {
			bad = append(bad, [2]int{u, v})
		}
	}
	// Repair: swap one endpoint of a bad pair with an endpoint of a random
	// existing edge so both resulting edges are valid.
	budget := 100 * (len(bad) + 1)
	for len(bad) > 0 && budget > 0 {
		budget--
		pr := bad[len(bad)-1]
		a, b := pr[0], pr[1]
		// Pick a random existing edge (u, w).
		u := src.Intn(n)
		if deg[u] == 0 {
			continue
		}
		w := int(list(u)[src.Intn(deg[u])])
		// Proposed replacement: (a, u) and (b, w).
		if a == u || b == w || has(a, u) || has(b, w) {
			continue
		}
		unarc(u, w)
		unarc(w, u)
		arc(a, u)
		arc(u, a)
		arc(b, w)
		arc(w, b)
		bad = bad[:len(bad)-1]
	}
	if len(bad) > 0 {
		return nil, false
	}
	off := make([]int32, n+1)
	for v := range off {
		off[v] = int32(v * d)
	}
	return &Graph{undirected: true, csr: CSR{NumNodes: n, OutOff: off, OutAdj: adj,
		InOff: off, InAdj: adj, MaxOutDeg: d, MaxInDeg: d}}, true
}
