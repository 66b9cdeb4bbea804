// Package graph provides the network topologies the radio model runs on.
//
// Networks are directed multigraph-free graphs over labels 0..n-1 with node 0
// as the broadcast source, matching the paper's model (Section 1.3): labels
// come from {0,...,r} with r linear in n, and the source carries label 0.
// Undirected networks are represented as symmetric directed graphs, which is
// exactly how Section 2 of the paper treats them ("undirected graphs can be
// considered as directed with every edge replaced by two directed edges").
//
// Every graph is built once: a Builder collects edges in insertion order
// and emits an immutable Graph stored as one int32 CSR, which the simulator
// reads directly (Compile) and from which a bitmap view is derived on
// demand (CompileBitmap).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Graph is an immutable directed graph on nodes 0..N-1. Out(v) lists the
// nodes whose receivers are reachable from v's transmitter; In(v) lists the
// nodes whose transmissions can reach v. For undirected graphs the two
// coincide and share storage.
type Graph struct {
	csr        CSR
	undirected bool

	// bmp is the bitmap-adjacency view, derived on first CompileBitmap.
	bmpOnce sync.Once
	bmp     *Bitmap
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.csr.NumNodes }

// Undirected reports whether the graph was built symmetric.
func (g *Graph) Undirected() bool { return g.undirected }

// Out returns the out-neighbors of v in insertion order. The slice is owned
// by the graph and must not be modified.
func (g *Graph) Out(v int) []int32 { return g.csr.OutSpan(v) }

// In returns the in-neighbors of v in insertion order. The slice is owned
// by the graph and must not be modified.
func (g *Graph) In(v int) []int32 { return g.csr.InSpan(v) }

// OutList returns a fresh []int copy of Out(v), for handing a neighbor list
// to protocol code that owns it.
func (g *Graph) OutList(v int) []int {
	out := g.Out(v)
	list := make([]int, len(out))
	for i, w := range out {
		list[i] = int(w)
	}
	return list
}

// OutDegree returns |Out(v)|.
func (g *Graph) OutDegree(v int) int { return g.csr.OutDegree(v) }

// InDegree returns |In(v)|.
func (g *Graph) InDegree(v int) int { return int(g.csr.InOff[v+1] - g.csr.InOff[v]) }

// Edges returns the number of directed arcs (an undirected edge counts as 2).
func (g *Graph) Edges() int { return g.csr.Arcs() }

// HasEdge reports whether the arc u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	return u >= 0 && u < g.N() && v >= 0 && v < g.N() && slices.Contains(g.Out(u), int32(v))
}

// BFSLayers returns, for each node, its distance from the source (node 0)
// following out-arcs, and the number of reachable nodes. Unreachable nodes
// get distance -1.
func (g *Graph) BFSLayers() (dist []int, reachable int) {
	n := g.N()
	dist = make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if n == 0 {
		return dist, 0
	}
	dist[0] = 0
	queue := append(make([]int, 0, n), 0)
	reachable = 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Out(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				reachable++
				queue = append(queue, int(v))
			}
		}
	}
	return dist, reachable
}

// Radius returns the eccentricity of the source: the largest distance from
// node 0 to any node (the paper's parameter D). It returns an error if some
// node is unreachable from the source, since broadcast is then impossible.
func (g *Graph) Radius() (int, error) {
	dist, reachable := g.BFSLayers()
	if reachable != g.N() {
		return 0, fmt.Errorf("graph: only %d of %d nodes reachable from source", reachable, g.N())
	}
	r := 0
	for _, d := range dist {
		r = max(r, d)
	}
	return r, nil
}

// Layers groups nodes by BFS distance from the source: Layers()[j] is the
// paper's "jth layer". It returns an error if the graph is not fully
// reachable.
func (g *Graph) Layers() ([][]int, error) {
	dist, reachable := g.BFSLayers()
	if reachable != g.N() {
		return nil, fmt.Errorf("graph: only %d of %d nodes reachable from source", reachable, g.N())
	}
	// Labels arrive in ascending order, so every layer comes out sorted.
	layers := make([][]int, 1)
	for v, d := range dist {
		for len(layers) <= d {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], v)
	}
	return layers, nil
}

// ErrNotBroadcastable is returned by Validate when some node cannot receive
// the source message.
var ErrNotBroadcastable = errors.New("graph: not all nodes reachable from source")

// Validate checks that an undirected graph is symmetric and that every node
// is reachable from the source; range, self-loop, duplicate and in/out
// consistency hold by construction (see Builder). It runs in O(n+m) on one
// allocation: a marker array, plus for undirected graphs a transpose whose
// space later holds the BFS queue.
func (g *Graph) Validate() error {
	n := g.N()
	if n == 0 {
		return nil
	}
	size := 2 * n
	if g.undirected {
		size += 1 + g.Edges()
	}
	buf := make([]int32, size)
	mark, rest := buf[:n], buf[n:]
	if g.undirected {
		// Counting-sort the arcs by target and check each node's in-set lies
		// in its out-set. Out-lists hold no duplicates, so neither do
		// in-lists; both total m, so every inclusion is an equality.
		off, adj := rest[:n+1], rest[n+1:]
		for _, w := range g.csr.OutAdj {
			off[w+1]++
		}
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		for u := 0; u < n; u++ {
			for _, w := range g.Out(u) {
				adj[off[w]] = int32(u)
				off[w]++
			}
		}
		// off[v] is now v's end, and v's start is v-1's end.
		for v, start := 0, int32(0); v < n; v++ {
			in := adj[start:off[v]]
			start = off[v]
			for _, w := range g.Out(v) {
				mark[w] = int32(v + 1)
			}
			for _, u := range in {
				if mark[u] != int32(v+1) {
					return fmt.Errorf("graph: undirected graph missing reverse arc (%d,%d)", v, u)
				}
			}
		}
	}
	// BFS from the source; -1 marks a visited node (stamps are positive).
	queue := append(rest[:0:n], 0)
	mark[0] = -1
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Out(int(queue[head])) {
			if mark[w] != -1 {
				mark[w] = -1
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return ErrNotBroadcastable
	}
	return nil
}

// IsCompleteLayered reports whether the graph is a complete layered network
// in the paper's sense (Section 4.3): the edge set is exactly
// {{x,y} : x in L_i, y in L_{i+1}} for the BFS layers L_i.
func (g *Graph) IsCompleteLayered() (bool, error) {
	layers, err := g.Layers()
	if err != nil {
		return false, err
	}
	wantEdges := 0
	for i := 0; i+1 < len(layers); i++ {
		wantEdges += len(layers[i]) * len(layers[i+1])
		for _, u := range layers[i] {
			for _, v := range layers[i+1] {
				if !g.HasEdge(u, v) { // and v->u, for undirected graphs
					return false, nil
				}
			}
		}
	}
	factor := 1
	if g.undirected {
		factor = 2
	}
	return g.Edges() == factor*wantEdges, nil
}

// Stats describes a graph in one line for logs and experiment tables.
func (g *Graph) Stats() string {
	d, err := g.Radius()
	rad := "∞"
	if err == nil {
		rad = fmt.Sprintf("%d", d)
	}
	lo, mean := 0, 0.0
	if g.N() > 0 {
		lo, mean = g.N(), float64(g.Edges())/float64(g.N())
	}
	for v := 0; v < g.N(); v++ {
		lo = min(lo, g.OutDegree(v))
	}
	return fmt.Sprintf("%s n=%d arcs=%d radius=%s deg[min=%d max=%d mean=%.1f]",
		g.kind(), g.N(), g.Edges(), rad, lo, g.csr.MaxOutDeg, mean)
}

// kind names the graph's direction as the edge-list format spells it.
func (g *Graph) kind() string {
	if g.undirected {
		return "undirected"
	}
	return "directed"
}
