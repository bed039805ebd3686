package kpj

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"kpj/internal/flatindex"
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// This file exposes the flat (mmap-able) persistence layer, the library's
// one on-disk format: a versioned binary file carrying the graph's CSR
// adjacency, its categories, and optionally its landmark index, stored in
// memory layout so loading is aliasing rather than parsing. kpjindex
// writes these; kpjserver -flat (optionally with -mmap) serves from them.

// WriteFlat serializes g — adjacency, categories, and ix when non-nil —
// in the flat binary layout. ix must have been built over g.
func WriteFlat(w io.Writer, g *Graph, ix *Index) (int64, error) {
	if ix == nil {
		return flatindex.Write(w, g.g, nil)
	}
	return flatindex.Write(w, g.g, ix.ix)
}

// WriteFlatFile is WriteFlat to a file at path. The file is written
// under a temporary name, fsynced and renamed over path, so readers never
// see a partial file and a process serving an earlier version of path
// through OpenFlat's mmap keeps its pages.
func WriteFlatFile(path string, g *Graph, ix *Index) error {
	if ix == nil {
		return flatindex.WriteFile(path, g.g, nil)
	}
	return flatindex.WriteFile(path, g.g, ix.ix)
}

// ReadFlat decodes a flat payload from r with full verification
// (checksum plus adjacency validation) — the in-memory counterpart of
// OpenFlat for snapshots arriving over the wire (WAL checkpoints,
// replica resync transfers) rather than from a file. The returned index
// is nil when the payload carries none.
func ReadFlat(r io.Reader) (*Graph, *Index, error) {
	l, err := flatindex.Read(r)
	if err != nil {
		return nil, nil, err
	}
	g := newGraph(l.G)
	var ix *Index
	if l.Index != nil {
		ix = &Index{ix: l.Index}
	}
	return g, ix, nil
}

// OpenFlat loads a flat file written by WriteFlatFile. With mmap true on
// a supporting platform (Linux) the file is mapped and the graph aliases
// it in place — O(1) startup with pages faulting in on demand, at the
// cost of skipping the checksum (structural header validation still
// runs). With mmap false (or elsewhere) the file is read into memory and
// fully verified. The returned index is nil when the file carries none.
// Close the returned Closer only after the graph and index are no longer
// in use.
func OpenFlat(path string, mmap bool) (*Graph, *Index, io.Closer, error) {
	l, err := flatindex.Open(path, mmap)
	if err != nil {
		return nil, nil, nil, err
	}
	g := newGraph(l.G)
	var ix *Index
	if l.Index != nil {
		ix = &Index{ix: l.Index}
	}
	return g, ix, l, nil
}

// LoadIndex binds the landmark index of a flat payload (as written by
// WriteFlat with a non-nil index) to g. The payload is fully verified
// (checksum and adjacency), and its graph must be g's graph generation:
// adjacency and weights are compared exactly, so an index built before
// any edge change fails with ErrIndexMismatch even when the change kept
// the edge count and the total weight. Categories are not compared — the
// landmark tables do not depend on them — and g's categories keep serving.
func LoadIndex(r io.Reader, g *Graph) (*Index, error) {
	l, err := flatindex.Read(r)
	if err != nil {
		return nil, err
	}
	if l.Index == nil {
		return nil, errors.New("kpj: flat payload carries no landmark index")
	}
	if !sameAdjacency(l.G, g.g) {
		return nil, fmt.Errorf("%w: adjacency or weights differ (file: %d nodes, %d edges; graph: %d nodes, %d edges)",
			ErrIndexMismatch, l.G.NumNodes(), l.G.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	ids, fwd, bwd := l.Index.Tables()
	ix, err := landmark.FromTables(g.g, ids, fwd, bwd)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// sameAdjacency reports whether a and b have identical out-adjacency
// (targets and weights). The in-adjacency is derived from it.
func sameAdjacency(a, b *graph.Graph) bool {
	aHead, aAdj, _, _ := a.CSR()
	bHead, bAdj, _, _ := b.CSR()
	return slices.Equal(aHead, bHead) && slices.Equal(aAdj, bAdj)
}
