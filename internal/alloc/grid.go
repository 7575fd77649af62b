package alloc

import (
	"fmt"
	"math/rand"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
)

// Grid is the materialized allocation of one unit's filters (Figure 2): a
// Rows×Cols array of nodes. Each row is one partition holding a full
// replica of the unit's filter set; within a row the filters are separated
// into Cols subsets, one per node. A filter lives at column
// hash(filterID) mod Cols in every row; a document is forwarded to every
// node of one randomly chosen row.
type Grid struct {
	rows  int
	cols  int
	nodes []ring.NodeID // row-major, len = rows*cols
}

// NewGrid lays out nodes row-major. len(nodes) must be ≥ rows*cols; extra
// nodes are ignored.
func NewGrid(rows, cols int, nodes []ring.NodeID) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrBadInput, rows, cols)
	}
	if len(nodes) < rows*cols {
		return nil, fmt.Errorf("%w: grid %dx%d needs %d nodes, have %d",
			ErrBadInput, rows, cols, rows*cols, len(nodes))
	}
	g := &Grid{rows: rows, cols: cols}
	g.nodes = append(g.nodes, nodes[:rows*cols]...)
	return g, nil
}

// FitGrid shrinks a desired rows×cols shape to what the available node
// count supports and builds the grid. At minimum it degenerates to 1×1.
func FitGrid(rows, cols int, nodes []ring.NodeID) (*Grid, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes for grid", ErrBadInput)
	}
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	for cols > len(nodes) {
		cols = len(nodes)
	}
	for rows*cols > len(nodes) {
		rows--
		if rows == 0 {
			rows = 1
			break
		}
	}
	return NewGrid(rows, cols, nodes)
}

// Rows returns the partition count (1/r_i).
func (g *Grid) Rows() int { return g.rows }

// Cols returns the separation width (r_i·n_i).
func (g *Grid) Cols() int { return g.cols }

// Size returns rows*cols.
func (g *Grid) Size() int { return len(g.nodes) }

// Node returns the node at (row, col).
func (g *Grid) Node(row, col int) ring.NodeID {
	return g.nodes[row*g.cols+col]
}

// Column returns the filter-storage column for a filter: the same subset
// index in every partition, so each partition holds a full replica.
func (g *Grid) Column(id model.FilterID) int {
	return int(ring.HashKey(id.String()) % uint64(g.cols))
}

// FilterNodes returns the nodes (one per row) that store filter id.
func (g *Grid) FilterNodes(id model.FilterID) []ring.NodeID {
	col := g.Column(id)
	out := make([]ring.NodeID, g.rows)
	for r := 0; r < g.rows; r++ {
		out[r] = g.Node(r, col)
	}
	return out
}

// RowNodes returns all nodes of one partition row.
func (g *Grid) RowNodes(row int) []ring.NodeID {
	out := make([]ring.NodeID, g.cols)
	copy(out, g.nodes[row*g.cols:(row+1)*g.cols])
	return out
}

// PickRow selects the partition a document is dispatched to. With rng the
// row is uniform random (the paper's choice); otherwise it is derived from
// the document ID, which keeps repeated dispatches deterministic.
func (g *Grid) PickRow(docID uint64, rng *rand.Rand) int {
	if g.rows == 1 {
		return 0
	}
	if rng != nil {
		return rng.Intn(g.rows)
	}
	return int(ring.HashKey(fmt.Sprintf("doc-row-%d", docID)) % uint64(g.rows))
}

// Equal reports whether two grids have identical shape and placement.
// Either receiver may be nil; two nils are equal. The coordinator uses it
// to skip re-preparing a unit whose computed grid did not change.
func (g *Grid) Equal(o *Grid) bool {
	if g == nil || o == nil {
		return g == o
	}
	if g.rows != o.rows || g.cols != o.cols {
		return false
	}
	for i, id := range g.nodes {
		if o.nodes[i] != id {
			return false
		}
	}
	return true
}

// AllNodes returns the grid's nodes row-major (copy).
func (g *Grid) AllNodes() []ring.NodeID {
	return append([]ring.NodeID(nil), g.nodes...)
}

// Encode serializes the grid for the forwarding-table exchange.
func (g *Grid) Encode() []byte {
	w := codec.NewWriter(16 + 16*len(g.nodes))
	w.Uvarint(uint64(g.rows))
	w.Uvarint(uint64(g.cols))
	for _, id := range g.nodes {
		w.String(string(id))
	}
	return w.Bytes()
}

// DecodeGrid parses a grid serialized by Encode.
func DecodeGrid(data []byte) (*Grid, error) {
	r := codec.NewReader(data)
	rows, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("alloc: grid rows: %w", err)
	}
	cols, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("alloc: grid cols: %w", err)
	}
	if rows == 0 || cols == 0 || rows*cols > 1<<20 {
		return nil, fmt.Errorf("%w: decoded grid %dx%d", ErrBadInput, rows, cols)
	}
	n := int(rows * cols)
	// Every node name takes at least its length byte: a short payload
	// cannot declare (and preallocate) a megacell grid.
	if n > r.Remaining() {
		return nil, fmt.Errorf("%w: decoded grid %dx%d overflows payload", ErrBadInput, rows, cols)
	}
	nodes := make([]ring.NodeID, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, fmt.Errorf("alloc: grid node %d: %w", i, err)
		}
		nodes = append(nodes, ring.NodeID(s))
	}
	return NewGrid(int(rows), int(cols), nodes)
}
