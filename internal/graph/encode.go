package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a plain text format:
//
//	n m
//	u v        (one line per edge)
//
// The format round-trips through ReadEdgeList, including loops and
// parallel edges.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty edge-list input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return nil, fmt.Errorf("graph: bad header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[0])
	if err != nil {
		return nil, fmt.Errorf("graph: bad vertex count: %w", err)
	}
	m, err := strconv.Atoi(header[1])
	if err != nil {
		return nil, fmt.Errorf("graph: bad edge count: %w", err)
	}
	if n <= 0 {
		return nil, ErrNoVertices
	}
	if n > MaxSize {
		return nil, fmt.Errorf("%w: n=%d", ErrTooLarge, n)
	}
	if m < 0 || m > MaxEdges {
		return nil, fmt.Errorf("graph: bad edge count %d", m)
	}
	// The header's m only bounds the loop: a few header bytes may
	// declare MaxEdges, so the edge slice grows with the lines read.
	var edges []Edge
	for i := 0; i < m; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: expected %d edges, got %d", m, i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", sc.Text())
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint: %w", err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint: %w", err)
		}
		if err := checkEdge(n, u, v); err != nil {
			return nil, err
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fromEdges(n, edges)
}

// DOT renders the graph in Graphviz DOT format, for eyeballing small
// experiment graphs.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "  %d;\n", v)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}
