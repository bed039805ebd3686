package kpj_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kpj"
)

// exportFlat is the export half of the round trip: WriteFlat into bytes.
func exportFlat(t *testing.T, g *kpj.Graph, ix *kpj.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := kpj.WriteFlat(&buf, g, ix)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteFlat reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestFlatImportExport: export → import → export must reproduce the flat
// file byte for byte, through both loaders (ReadFlat and OpenFlat with
// mmap), with and without an index, and for every generation of an
// Index.Apply chain — repaired tables persist exactly like built ones.
func TestFlatImportExport(t *testing.T) {
	const w = 12
	g := cityGrid(t, w, w, 21)
	if err := g.AddCategory("poi", []kpj.NodeID{5, 40, 77, 130}); err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	type generation struct {
		name string
		g    *kpj.Graph
		ix   *kpj.Index
	}
	gens := []generation{{"no-index", g, nil}, {"index", g, ix}}
	chain := []*kpj.Delta{
		{SetWeights: []kpj.EdgeUpdate{{U: 0, V: 1, W: 7}, {U: w, V: w + 1, W: 300}}},
		{Deletes: []kpj.EdgeRef{{U: 1, V: 2}}, AddPOIs: []kpj.POIUpdate{{Category: "poi", Node: 50}}},
		{Inserts: []kpj.EdgeUpdate{{U: 0, V: w + 1, W: 60}}, RemovePOIs: []kpj.POIUpdate{{Category: "poi", Node: 40}}},
	}
	for i, d := range chain {
		prev := gens[len(gens)-1]
		ap, err := prev.ix.Apply(d)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		gens = append(gens, generation{fmt.Sprintf("apply%d", i+1), ap.Graph, ap.Index})
	}

	dir := t.TempDir()
	for _, gen := range gens {
		exp1 := exportFlat(t, gen.g, gen.ix)
		path := filepath.Join(dir, gen.name+".kpjflat")
		if err := os.WriteFile(path, exp1, 0o644); err != nil {
			t.Fatal(err)
		}

		g2, ix2, err := kpj.ReadFlat(bytes.NewReader(exp1))
		if err != nil {
			t.Fatalf("%s: ReadFlat: %v", gen.name, err)
		}
		if exp2 := exportFlat(t, g2, ix2); !bytes.Equal(exp1, exp2) {
			t.Fatalf("%s: ReadFlat round trip changed the file (%d vs %d bytes)", gen.name, len(exp1), len(exp2))
		}

		g3, ix3, closer, err := kpj.OpenFlat(path, true)
		if err != nil {
			t.Fatalf("%s: OpenFlat: %v", gen.name, err)
		}
		exp3 := exportFlat(t, g3, ix3)
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exp1, exp3) {
			t.Fatalf("%s: OpenFlat(mmap) round trip changed the file (%d vs %d bytes)", gen.name, len(exp1), len(exp3))
		}
		if (ix2 == nil) != (gen.ix == nil) || (ix3 == nil) != (gen.ix == nil) {
			t.Fatalf("%s: index presence not preserved", gen.name)
		}
	}
}

// TestLoadIndexRejectsStaleGeneration sweeps seeded random graphs through
// a weight move between two edges, which keeps the node count, the edge
// count and the total weight: the index file written before the move must
// never bind to the graph after it, and must still bind to its own graph.
func TestLoadIndexRejectsStaleGeneration(t *testing.T) {
	const n, seeds = 40, 300
	type edge struct {
		u, v kpj.NodeID
		w    kpj.Weight
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := kpj.NewBuilder(n)
		var edges []edge
		seen := map[[2]kpj.NodeID]bool{}
		add := func(u, v kpj.NodeID) {
			if u == v || seen[[2]kpj.NodeID{u, v}] {
				return
			}
			seen[[2]kpj.NodeID{u, v}] = true
			e := edge{u, v, kpj.Weight(2 + rng.Intn(30))}
			b.AddEdge(e.u, e.v, e.w)
			edges = append(edges, e)
		}
		for u := 0; u < n; u++ {
			add(kpj.NodeID(u), kpj.NodeID((u+1)%n)) // a ring keeps it strongly connected
		}
		for i := 0; i < 3*n; i++ {
			add(kpj.NodeID(rng.Intn(n)), kpj.NodeID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := kpj.BuildIndex(g, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		data := exportFlat(t, g, ix)

		i := rng.Intn(len(edges))
		j := (i + 1 + rng.Intn(len(edges)-1)) % len(edges)
		from, to := edges[i], edges[j]
		d := 1 + kpj.Weight(rng.Int63n(int64(from.w-1)))
		next, err := g.WithDelta(&kpj.Delta{SetWeights: []kpj.EdgeUpdate{
			{U: from.u, V: from.v, W: from.w - d},
			{U: to.u, V: to.v, W: to.w + d},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kpj.LoadIndex(bytes.NewReader(data), next); !errors.Is(err, kpj.ErrIndexMismatch) {
			t.Fatalf("seed %d: index from before the weight move bound with err = %v, want ErrIndexMismatch", seed, err)
		}
		if _, err := kpj.LoadIndex(bytes.NewReader(data), g); err != nil {
			t.Fatalf("seed %d: index rejected by its own graph: %v", seed, err)
		}
	}
}
