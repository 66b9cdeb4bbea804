package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format. The source is drawn as
// a doubled circle. Undirected graphs emit each edge once.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "radio"
	}
	kind, sep := "digraph", "->"
	if g.undirected {
		kind, sep = "graph", "--"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %s {\n", kind, name)
	fmt.Fprintf(bw, "  0 [shape=doublecircle];\n")
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if g.undirected && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, "  %d %s %d;\n", u, sep, v)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteEdgeList writes a plain text format readable by ReadEdgeList:
//
//	# comments allowed
//	nodes <n> <undirected|directed>
//	<u> <v>     (one edge per line; undirected edges listed once)
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d %s\n", g.N(), g.kind())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if g.undirected && int(v) < u {
				continue
			}
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// starting with '#' are ignored. Edges keep their file order.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var b *Builder
	var lines []int // source line of every recorded edge
	lineNo := 0
	// fail reports err at line, unless an earlier line repeats an edge:
	// the builder finds duplicates only when asked, and the first bad line
	// in the file is the one to report.
	fail := func(line int, err error) (*Graph, error) {
		if b != nil {
			if i := b.firstDuplicate(); i >= 0 {
				line, err = lines[i], b.duplicateError(i)
			}
		}
		if line == 0 {
			return nil, fmt.Errorf("graph: %w", err)
		}
		return nil, fmt.Errorf("graph: line %d: %w", line, err)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 3 || fields[0] != "nodes" {
				return fail(lineNo, fmt.Errorf("expected \"nodes <n> <kind>\", got %q", line))
			}
			var n int
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 || n >= math.MaxInt32 {
				return fail(lineNo, fmt.Errorf("bad node count %q", fields[1]))
			}
			if fields[2] != "undirected" && fields[2] != "directed" {
				return fail(lineNo, fmt.Errorf("bad kind %q", fields[2]))
			}
			b = NewBuilder(n, fields[2] == "undirected")
			continue
		}
		if len(fields) != 2 {
			return fail(lineNo, fmt.Errorf("expected \"<u> <v>\", got %q", line))
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return fail(lineNo, err)
		}
		if err := b.AddEdge(u, v); err != nil {
			return fail(lineNo, err)
		}
		lines = append(lines, lineNo)
	}
	if err := sc.Err(); err != nil {
		return fail(0, err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	g, err := b.Build()
	if err != nil && b.firstDuplicate() >= 0 {
		return fail(lineNo, err)
	}
	return g, err
}
