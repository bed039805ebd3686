// Command kpjquery runs ad-hoc KPJ / KSP / GKPJ queries against a graph on
// disk: DIMACS ".gr" plus a POI category file (e.g. from kpjgen), or a
// flat file from kpjindex carrying graph, categories and index.
//
// Usage:
//
//	kpjquery -graph sj.gr -pois sj.pois -source 42 -category T2 -k 5
//	kpjquery -graph sj.gr -pois sj.pois -source-category T1 -category T2 -k 5 -alg DA-SPT
//	kpjquery -flat sj.kpjflat -source 42 -category T2 -k 5
//
// -flat replaces -graph/-pois; the index it carries replaces -landmarks
// (a flat file without an index falls back to building -landmarks).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kpj"
)

var algorithms = map[string]kpj.Algorithm{
	"IterBoundI": kpj.IterBoundSPTI,
	"IterBoundP": kpj.IterBoundSPTP,
	"IterBound":  kpj.IterBound,
	"BestFirst":  kpj.BestFirst,
	"DA":         kpj.DA,
	"DA-SPT":     kpj.DASPT,
}

func main() {
	graphPath := flag.String("graph", "", "DIMACS .gr file (required unless -flat is given)")
	flatPath := flag.String("flat", "", "flat graph+index file from kpjindex (replaces -graph/-pois)")
	poisPath := flag.String("pois", "", "POI category file")
	source := flag.Int("source", -1, "source node id (KPJ/KSP)")
	sourceCat := flag.String("source-category", "", "source category (GKPJ)")
	category := flag.String("category", "", "destination category (required)")
	k := flag.Int("k", 10, "number of paths")
	alg := flag.String("alg", "IterBoundI", "algorithm: "+strings.Join(algoNames(), ", "))
	landmarks := flag.Int("landmarks", 16, "landmark count (0 disables the index; ignored when -flat carries one)")
	alpha := flag.Float64("alpha", 1.1, "tau growth factor")
	seed := flag.Int64("seed", 1, "landmark selection seed")
	trace := flag.Bool("trace", false, "print an EXPLAIN-style engine trace to stderr")
	spans := flag.Bool("spans", false, "print the query's phase timeline (EXPLAIN ANALYZE) as JSON to stderr")
	metrics := flag.Bool("metrics", false, "print engine metrics in Prometheus text format to stderr")
	flag.Parse()

	if err := run(*graphPath, *flatPath, *poisPath, *source, *sourceCat, *category, *k, *alg, *landmarks, *alpha, *seed, *trace, *spans, *metrics); err != nil {
		fmt.Fprintf(os.Stderr, "kpjquery: %v\n", err)
		os.Exit(1)
	}
}

func algoNames() []string {
	names := make([]string, 0, len(algorithms))
	for n := range algorithms {
		names = append(names, n)
	}
	return names
}

func run(graphPath, flatPath, poisPath string, source int, sourceCat, category string, k int, alg string, landmarks int, alpha float64, seed int64, trace, spans, metrics bool) error {
	if (graphPath == "") == (flatPath == "") || category == "" {
		return fmt.Errorf("-category and exactly one of -graph or -flat are required")
	}
	if flatPath != "" && poisPath != "" {
		return fmt.Errorf("-flat replaces -graph/-pois; do not combine them")
	}
	algo, ok := algorithms[alg]
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want one of %s)", alg, strings.Join(algoNames(), ", "))
	}

	g, ix, err := loadGraph(graphPath, flatPath, poisPath)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges, categories %v\n", g.NumNodes(), g.NumEdges(), g.Categories())

	opt := &kpj.Options{Algorithm: algo, Alpha: alpha, Stats: &kpj.Stats{}}
	if trace {
		opt.Trace = os.Stderr
	}
	if spans {
		opt.Spans = kpj.NewSpans()
	}
	var reg *kpj.MetricsRegistry
	if metrics {
		reg = kpj.NewMetricsRegistry()
		kpj.EnableMetrics(reg)
		defer kpj.EnableMetrics(nil)
	}
	switch {
	case ix != nil:
		opt.Index = ix
		fmt.Printf("index: %d landmarks loaded from %s\n", ix.Count(), flatPath)
	case landmarks > 0:
		start := time.Now()
		ix, err := kpj.BuildIndex(g, landmarks, seed)
		if err != nil {
			return err
		}
		opt.Index = ix
		fmt.Printf("index: %d landmarks, %d bytes, built in %v\n", ix.Count(), ix.SizeBytes(), time.Since(start).Round(time.Millisecond))
	}

	var paths []kpj.Path
	start := time.Now()
	switch {
	case sourceCat != "":
		paths, err = g.TopKCategoryJoin(sourceCat, category, k, opt)
	case source >= 0:
		paths, err = g.TopKJoin(kpj.NodeID(source), category, k, opt)
	default:
		return fmt.Errorf("one of -source or -source-category is required")
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for i, p := range paths {
		fmt.Printf("P%-3d length=%-10d nodes=%v\n", i+1, p.Length, p.Nodes)
	}
	fmt.Printf("%d paths in %v (%s, alpha=%.2f)  stats: %+v\n",
		len(paths), elapsed.Round(time.Microsecond), alg, alpha, *opt.Stats)
	if opt.Spans != nil {
		fmt.Fprintln(os.Stderr, "phase timeline:")
		if err := opt.Spans.WriteJSON(os.Stderr); err != nil {
			return err
		}
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "metrics:")
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// loadGraph reads the graph (and, from a flat file, its index when it
// carries one) from either -flat or -graph/-pois.
func loadGraph(graphPath, flatPath, poisPath string) (*kpj.Graph, *kpj.Index, error) {
	if flatPath != "" {
		f, err := os.Open(flatPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return kpj.ReadFlat(f)
	}
	gf, err := os.Open(graphPath)
	if err != nil {
		return nil, nil, err
	}
	defer gf.Close()
	g, err := kpj.ReadGraph(gf)
	if err != nil {
		return nil, nil, err
	}
	if poisPath != "" {
		pf, err := os.Open(poisPath)
		if err != nil {
			return nil, nil, err
		}
		defer pf.Close()
		if err := g.ReadCategories(pf); err != nil {
			return nil, nil, err
		}
	}
	return g, nil, nil
}
