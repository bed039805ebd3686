package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"kpj"
	"kpj/internal/server"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// runs against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func findMetric(res *result, name string) (metric, bool) {
	for _, m := range res.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// requires no failed operation and every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stack")
	}
	spec := loadSpec(t)
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(), scale: 0.05, perSet: 3}
			res, err := bench(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed", name, trace, res.failed, res.attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, trace, len(res.metrics), len(want))
			}
			for _, w := range want {
				m, ok := findMetric(res, w.Name)
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", name, trace, w.Name)
				case m.Unit != w.Unit:
					t.Errorf("%s trace=%t: metric %s in %s, BENCHMARK.json says %s", name, trace, w.Name, m.Unit, w.Unit)
				}
			}
		}
	}
}

// TestCheckerCatchesCorruption feeds the answer checks a correct server
// response and corrupted copies of it.
func TestCheckerCatchesCorruption(t *testing.T) {
	w := workloads["far-join"]
	w.scale, w.perSet = 0.05, 2
	in, err := makeInputs(w, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(in.g, in.cat, in.queries)
	if err != nil {
		t.Fatal(err)
	}
	// A query whose first two paths differ in length, so that swapping
	// them is an error rather than an equally valid tie order.
	qi := -1
	for i, want := range or.want {
		if len(want) >= 2 && want[0].Length != want[1].Length && len(want[0].Nodes) >= 3 {
			qi = i
			break
		}
	}
	if qi < 0 {
		t.Fatal("no query with two paths of different lengths")
	}
	body := func(edit func(*server.QueryResponse)) []byte {
		resp := server.QueryResponse{Paths: pathsJSON(or.want[qi]), Micros: 17}
		for i, p := range resp.Paths {
			resp.Paths[i].Nodes = append([]kpj.NodeID(nil), p.Nodes...)
		}
		edit(&resp)
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := or.check(qi, body(func(*server.QueryResponse) {})); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corrupt := map[string]func(*server.QueryResponse){
		"length": func(r *server.QueryResponse) { r.Paths[1].Length++ },
		"node": func(r *server.QueryResponse) {
			mid := len(r.Paths[0].Nodes) / 2
			r.Paths[0].Nodes[mid] = (r.Paths[0].Nodes[mid] + 1) % kpj.NodeID(in.g.NumNodes())
		},
		"missing":   func(r *server.QueryResponse) { r.Paths = r.Paths[:len(r.Paths)-1] },
		"order":     func(r *server.QueryResponse) { r.Paths[0], r.Paths[1] = r.Paths[1], r.Paths[0] },
		"truncated": func(r *server.QueryResponse) { r.Truncated = true },
	}
	for name, edit := range corrupt {
		b := body(edit)
		if or.check(qi, b) == nil {
			t.Errorf("%s: corrupted answer accepted by the oracle check: %s", name, b)
		}
		// The churn check decodes every sample; it must agree.
		errs := checkGenerations(in.g, in.queries, nil, []sample{{qi: qi, body: b}})
		if len(errs) == 0 {
			t.Errorf("%s: corrupted answer accepted by the generation check", name)
		}
	}
	if errs := checkGenerations(in.g, in.queries, nil, []sample{{qi: qi, body: body(func(*server.QueryResponse) {})}}); len(errs) != 0 {
		t.Errorf("correct answer rejected by the generation check: %v", errs)
	}
	errs := checkGenerations(in.g, in.queries, nil, []sample{{qi: qi, epoch: 1, body: body(func(*server.QueryResponse) {})}})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "epoch 1") {
		t.Errorf("an answer from an epoch no update produced was not caught: %v", errs)
	}
}

// TestBadArguments requires a non-zero exit and no result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "far-join", "-trace", "2"},
		{"-bogus"},
	} {
		var out strings.Builder
		if code := run(append(args, "-workdir", t.TempDir()), &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
