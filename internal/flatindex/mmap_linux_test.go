package flatindex

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kpj/internal/core"
	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// TestRewriteKeepsMapping rewrites a flat file that is mapped and being
// served with a smaller one. WriteFile replaces the file by rename, so
// the old mapping keeps its pages and answers as before; rewriting in
// place would truncate the mapped file and fault (SIGBUS) on the next
// query. A fresh Open sees the new file.
func TestRewriteKeepsMapping(t *testing.T) {
	_, _, blob := buildSample(t, 8)
	path := filepath.Join(t.TempDir(), "served.kpjflat")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	served, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	if !served.Mapped {
		t.Fatal("mmap requested on linux but loader fell back")
	}
	targets, err := served.G.Category("T")
	if err != nil {
		t.Fatal(err)
	}
	ask := func() [][]core.Path {
		var out [][]core.Path
		for _, src := range []graph.NodeID{1, 60, 199} {
			q := core.Query{Sources: []graph.NodeID{src}, Targets: targets, K: 8}
			paths, err := core.IterBoundSPTI(served.G, q, core.Options{Index: served.Index})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, paths)
		}
		return out
	}
	before := ask()

	if err := WriteFile(path, testgraphs.Fig1(), nil); err != nil {
		t.Fatal(err)
	}
	if after := ask(); !reflect.DeepEqual(before, after) {
		t.Fatal("answers from the old mapping changed after the file was rewritten")
	}
	fresh, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.G.NumNodes() != testgraphs.Fig1().NumNodes() || fresh.Index != nil {
		t.Fatalf("reopened file: %d nodes, index %v; want the rewritten small graph", fresh.G.NumNodes(), fresh.Index != nil)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}
