package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kpj"
	"kpj/internal/gen"
	"kpj/internal/graph"
)

// workload is one traffic mix. Every workload runs the same stack (client
// → kpjrouter → two kpjserver replicas serving an mmapped flat file); the
// workloads differ in graph size, query mix and update traffic so that
// each one loads a different layer. README.md gives the reasons.
type workload struct {
	scale  float64  // linear scale of the COL road network
	cats   []string // destination categories of the query mix
	strata []int    // distance strata (0 = Q1 … 4 = Q5) sources come from
	// nearest, when set instead of strata, draws the sources from this
	// share of the nodes nearest to the category.
	nearest float64
	perSet  int // sources per category and stratum, or per category with nearest
	k       int
	clients int // closed-loop query clients

	// updateRate is the open-loop /update rate during the measured window;
	// 0 means no feed. Workloads without a feed time probeUpdates
	// sequential updates after the window instead, so every workload
	// reports the update-latency metrics.
	updateRate   float64
	probeUpdates int
	// withWAL serves from replicas built WithWAL (fsync on every update).
	withWAL bool
}

const (
	landmarks  = 16
	churnOps   = 4
	warmupTime = 3 // seconds of closed-loop traffic before measuring
	setupReps  = 5 // set-ups per run; setup_s is their median
	// checkpointEvery is the WAL checkpoint interval in epochs: at 2
	// updates/s a run completes several, and one update in five carries a
	// checkpoint, so update_p90_ms sits inside the checkpoint spikes
	// rather than on their edge.
	checkpointEvery = 5
	// datasetSeed fixes the road network, its categories and its landmark
	// index, as the paper's datasets are fixed; -seed varies the traffic
	// (query sources, request streams and update deltas). Category
	// placement alone moved throughput by a sixth between seeds, more
	// than a regression bound can absorb.
	datasetSeed = 1
)

var (
	farCats  = []string{"T2", "T3"}
	nearCats = []string{"T1", "T2", "T3", "T4", "Lake", "Crater", "Harbor"}
	allQ     = []int{0, 1, 2, 3, 4}
)

var workloads = map[string]workload{
	"far-join": {scale: 0.5, cats: farCats, strata: allQ, perSet: 200, k: 20,
		clients: 2, probeUpdates: 15},
	"near-poi": {scale: 0.5, cats: nearCats, nearest: 0.05, perSet: 1000, k: 5,
		clients: 2, probeUpdates: 15},
	"churn": {scale: 0.25, cats: farCats, strata: allQ, perSet: 200, k: 20,
		clients: 1, updateRate: 2, withWAL: true},
}

// query is one distinct (source, category, k) request of a mix.
type query struct {
	src kpj.NodeID
	cat string
	k   int
}

func (q query) rawQuery(rid int64) string {
	return fmt.Sprintf("source=%d&category=%s&k=%d&rid=%d", q.src, q.cat, q.k, rid)
}

// inputs are everything a run derives from (workload, seed) before the
// stack starts. Generating them is not part of the measured set-up.
type inputs struct {
	g       *kpj.Graph
	queries []query
	cat     map[string][]kpj.NodeID
	deltas  []*kpj.Delta // non-empty deltas in schedule order
	bodies  [][]byte     // their JSON, as POSTed to /update
	empties int          // empty deltas dropped from the schedule
}

// makeInputs generates the road network and its categories from
// datasetSeed, and the query mix and the update schedule from seed. The
// same (workload, seed) gives the same inputs.
func makeInputs(w workload, seed int64, seconds, windows int) (*inputs, error) {
	ds, err := gen.ByName("COL")
	if err != nil {
		return nil, err
	}
	ig, err := ds.Build(w.scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	if _, err := gen.AddNestedCategories(ig, datasetSeed+1); err != nil {
		return nil, err
	}
	if _, err := gen.AddCALCategories(ig, datasetSeed+2); err != nil {
		return nil, err
	}
	in := &inputs{cat: map[string][]kpj.NodeID{}}
	if in.g, err = toPublic(ig); err != nil {
		return nil, err
	}
	for ci, c := range w.cats {
		nodes, err := in.g.Category(c)
		if err != nil {
			return nil, err
		}
		in.cat[c] = nodes
		sets, dist, err := gen.QuerySets(ig, c, w.perSet, seed+10+int64(ci))
		if err != nil {
			return nil, err
		}
		var srcs []kpj.NodeID
		for _, s := range w.strata {
			srcs = append(srcs, sets[s]...)
		}
		if w.nearest > 0 {
			srcs = nearestSources(dist, w.nearest, w.perSet, seed+20+int64(ci))
		}
		for _, src := range srcs {
			in.queries = append(in.queries, query{src: src, cat: c, k: w.k})
		}
	}
	steps := w.probeUpdates
	if w.updateRate > 0 {
		// The feed runs through the warm-up and every measured window.
		steps = int(math.Ceil(w.updateRate*float64(warmupTime+seconds*windows))) + 4
	}
	if steps > 0 {
		deltas, _, err := gen.Churn(ig, gen.ChurnConfig{Steps: steps, Ops: churnOps, Seed: seed + 3})
		if err != nil {
			return nil, err
		}
		for _, d := range deltas {
			if d.Empty() {
				// The server rejects an empty delta with 400; it is not a
				// program failure, so it is never sent.
				in.empties++
				continue
			}
			b, err := json.Marshal(d)
			if err != nil {
				return nil, err
			}
			in.deltas = append(in.deltas, d)
			in.bodies = append(in.bodies, b)
		}
	}
	return in, nil
}

// nearestSources samples n nodes from the given share of the nodes that
// reach a category, nearest first by their distance to it.
func nearestSources(dist []kpj.Weight, share float64, n int, seed int64) []kpj.NodeID {
	var reach []kpj.NodeID
	for v, d := range dist {
		if d < kpj.Infinity {
			reach = append(reach, kpj.NodeID(v))
		}
	}
	sort.Slice(reach, func(i, j int) bool {
		a, b := reach[i], reach[j]
		return dist[a] < dist[b] || dist[a] == dist[b] && a < b
	})
	pool := reach[:max(1, int(share*float64(len(reach))))]
	rng := rand.New(rand.NewSource(seed))
	var out []kpj.NodeID
	for _, i := range rng.Perm(len(pool))[:min(n, len(pool))] {
		out = append(out, pool[i])
	}
	return out
}

// toPublic rebuilds a generator graph through the public builder, edge
// for edge, with its categories.
func toPublic(ig *graph.Graph) (*kpj.Graph, error) {
	b := kpj.NewBuilder(ig.NumNodes())
	for v := 0; v < ig.NumNodes(); v++ {
		for _, e := range ig.Out(kpj.NodeID(v)) {
			b.AddEdge(kpj.NodeID(v), e.To, e.W)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	for _, c := range ig.Categories() {
		nodes, err := ig.Category(c)
		if err != nil {
			return nil, err
		}
		if err := g.AddCategory(c, nodes); err != nil {
			return nil, err
		}
	}
	return g, nil
}
