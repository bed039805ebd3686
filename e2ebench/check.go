package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"kpj"
	"kpj/internal/server"
)

// oracle holds the answer to every distinct query of a static-graph mix,
// computed before the stack serves anything by a direct engine call with
// no landmark index and no bounds cache — a different code path from the
// one the replicas serve.
type oracle struct {
	g    *kpj.Graph
	cat  map[string][]kpj.NodeID
	qs   []query
	want [][]kpj.Path
	// wantJSON is the "paths" array as the server encodes it. A response
	// that carries exactly these bytes is correct without decoding; any
	// other response is decoded and checked path by path (equal-length
	// paths may legitimately come back in another order).
	wantJSON [][]byte
}

func newOracle(g *kpj.Graph, cat map[string][]kpj.NodeID, qs []query) (*oracle, error) {
	o := &oracle{g: g, cat: cat, qs: qs, want: make([][]kpj.Path, len(qs)), wantJSON: make([][]byte, len(qs))}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wk := wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := wk; i < len(qs); i += workers {
				want, err := directAnswer(g, qs[i])
				if err == nil {
					o.wantJSON[i], err = json.Marshal(pathsJSON(want))
				}
				if err != nil {
					errs[wk] = err
					return
				}
				o.want[i] = want
			}
		}()
	}
	wg.Wait()
	return o, errors.Join(errs...)
}

// directAnswer runs q on g with a plain, uncached engine and validates
// the result against the graph.
func directAnswer(g *kpj.Graph, q query) ([]kpj.Path, error) {
	targets, err := g.Category(q.cat)
	if err != nil {
		return nil, err
	}
	src := []kpj.NodeID{q.src}
	want, err := g.TopKJoinSets(src, targets, q.k, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle %+v: %w", q, err)
	}
	if err := kpj.ValidatePaths(g, src, targets, want); err != nil {
		return nil, fmt.Errorf("oracle %+v: %w", q, err)
	}
	return want, nil
}

func pathsJSON(paths []kpj.Path) []server.PathJSON {
	out := make([]server.PathJSON, len(paths))
	for i, p := range paths {
		out[i] = server.PathJSON{Nodes: p.Nodes, Length: p.Length}
	}
	return out
}

var (
	pathsPrefix   = []byte(`{"paths":`)
	truncatedMark = []byte(`"truncated":true`)
)

// check verifies one /query response body against the oracle.
func (o *oracle) check(qi int, body []byte) error {
	want := o.wantJSON[qi]
	if rest, ok := bytes.CutPrefix(body, pathsPrefix); ok && bytes.HasPrefix(rest, want) {
		if tail := rest[len(want):]; len(tail) > 0 && tail[0] == ',' {
			if bytes.Contains(tail, truncatedMark) {
				return errors.New("truncated answer")
			}
			return nil
		}
	}
	q := o.qs[qi]
	return checkAnswer(o.g, q, o.cat[q.cat], o.want[qi], body)
}

// checkAnswer decodes a /query response and requires an untruncated
// answer whose path lengths equal want's and whose paths are valid paths
// of g from q's source into targets.
func checkAnswer(g *kpj.Graph, q query, targets []kpj.NodeID, want []kpj.Path, body []byte) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	if resp.Truncated {
		return errors.New("truncated answer")
	}
	got := make([]kpj.Path, len(resp.Paths))
	for i, p := range resp.Paths {
		got[i] = kpj.Path{Nodes: p.Nodes, Length: p.Length}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Length != want[i].Length {
			return fmt.Errorf("path %d has length %d, want %d (lengths %v, want %v)",
				i, got[i].Length, want[i].Length, lengths(got), lengths(want))
		}
	}
	return kpj.ValidatePaths(g, []kpj.NodeID{q.src}, targets, got)
}

func lengths(paths []kpj.Path) []kpj.Weight {
	out := make([]kpj.Weight, len(paths))
	for i, p := range paths {
		out[i] = p.Length
	}
	return out
}

// sample is a churn response kept for checking after the window against
// the generation its X-Kpj-Epoch header names.
type sample struct {
	qi    int
	epoch uint64
	body  []byte
}

// checkGenerations rebuilds the benchmark's own generation chain — the
// seed graph plus Graph.WithDelta for each accepted delta, in epoch order
// — and checks every sample against an uncached engine on the generation
// that served it. applied[e-1] is the delta that produced epoch e. It
// returns one error per failing sample.
func checkGenerations(g *kpj.Graph, qs []query, applied []*kpj.Delta, samples []sample) []error {
	byEpoch := make([][]sample, len(applied)+1)
	var errs []error
	for _, s := range samples {
		if s.epoch > uint64(len(applied)) {
			errs = append(errs, fmt.Errorf("query %+v: answered at epoch %d, but only %d updates were accepted",
				qs[s.qi], s.epoch, len(applied)))
			continue
		}
		byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
	}
	cur := g
	for e := range byEpoch {
		if e > 0 {
			next, err := cur.WithDelta(applied[e-1])
			if err != nil {
				return append(errs, fmt.Errorf("rebuild epoch %d: %w", e, err))
			}
			cur = next
		}
		for _, s := range byEpoch[e] {
			q := qs[s.qi]
			want, err := directAnswer(cur, q)
			if err == nil {
				targets, _ := cur.Category(q.cat)
				err = checkAnswer(cur, q, targets, want, s.body)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("query %s at epoch %d: %w", q.rawQuery(0), e, err))
			}
		}
	}
	return errs
}
