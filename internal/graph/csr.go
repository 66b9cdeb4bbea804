package graph

// CSR is the compressed-sparse-row storage of a Graph: per-direction flat
// adjacency arrays plus offset arrays, int32-typed so the simulator's hot
// loop walks contiguous, cache-dense memory. OutAdj[OutOff[v]:OutOff[v+1]]
// lists v's out-neighbors in insertion order, which is Graph.Out(v); the In
// pair is Graph.In. Undirected graphs share one pair for both directions.
//
// A CSR is immutable: the Builder emits it once and every reader (parallel
// trial workers included) shares the same instance. Callers must not
// modify any field.
type CSR struct {
	// NumNodes is the node count (same as Graph.N).
	NumNodes int
	// OutOff has length NumNodes+1; OutAdj has one entry per arc.
	OutOff []int32
	OutAdj []int32
	// InOff/InAdj are the transposed adjacency (in-neighbors).
	InOff []int32
	InAdj []int32
	// MaxOutDeg and MaxInDeg are the largest per-node degrees, used to
	// pre-size simulator scratch buffers.
	MaxOutDeg int
	MaxInDeg  int
}

// OutSpan returns v's out-neighbors as a slice of the flat array.
func (c *CSR) OutSpan(v int) []int32 { return c.OutAdj[c.OutOff[v]:c.OutOff[v+1]] }

// InSpan returns v's in-neighbors as a slice of the flat array.
func (c *CSR) InSpan(v int) []int32 { return c.InAdj[c.InOff[v]:c.InOff[v+1]] }

// OutDegree returns |Out(v)| without touching the adjacency array.
func (c *CSR) OutDegree(v int) int { return int(c.OutOff[v+1] - c.OutOff[v]) }

// Arcs returns the number of directed arcs.
func (c *CSR) Arcs() int { return len(c.OutAdj) }

// Compile returns the graph's CSR: its own storage, which every caller —
// concurrent trial workers included — shares at no cost.
func (g *Graph) Compile() *CSR { return &g.csr }
