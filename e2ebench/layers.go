package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"kpj"
	"kpj/internal/server"
	"kpj/internal/wal"
)

// The traced run measures the layers below the serving tier by calling
// their public functions directly, on the same graph and the same
// traffic the stack saw.

// enginePhases are the engine phases reported as core.<phase>_us.
var enginePhases = []string{"lb_tables", "spt_build", "initial_path", "round", "divide", "resolve"}

type engineResult struct {
	queryUS []float64
	byQuery map[int][]float64  // the timing pass's durations per query of the mix
	selfUS  map[string]float64 // per phase, summed over the traced queries
	stats   kpj.Stats          // summed over the traced queries
	traced  int
}

// replayEngine runs the recorded query stream through Graph.TopKJoinSets
// with the options a replica uses (its index and a bounds cache, warmed
// first): a timing pass with nothing recorded, then a pass with
// Options.Spans and Options.Stats for the phase split. Each pass stops
// after its share of budget.
func replayEngine(g *kpj.Graph, ix *kpj.Index, in *inputs, stream []int, budget time.Duration, tr *tracer) (engineResult, error) {
	res := engineResult{selfUS: map[string]float64{}, byQuery: map[int][]float64{}}
	opt := kpj.Options{Index: ix, BoundsCache: kpj.NewBoundsCache(0)}
	for _, q := range in.queries {
		if _, err := g.TopKJoinSets([]kpj.NodeID{q.src}, in.cat[q.cat], q.k, &opt); err != nil {
			return res, err
		}
	}
	deadline := time.Now().Add(budget / 2)
	for _, qi := range stream {
		if time.Now().After(deadline) {
			break
		}
		q := in.queries[qi]
		start := time.Now()
		if _, err := g.TopKJoinSets([]kpj.NodeID{q.src}, in.cat[q.cat], q.k, &opt); err != nil {
			return res, err
		}
		end := time.Now()
		us := end.Sub(start).Seconds() * 1e6
		res.queryUS = append(res.queryUS, us)
		res.byQuery[qi] = append(res.byQuery[qi], us)
		tr.add(span{Name: "engine.query", Start: tr.at(start), End: tr.at(end), Replica: -1, Query: qi, Cat: q.cat})
	}
	deadline = time.Now().Add(budget / 2)
	for _, qi := range stream {
		if time.Now().After(deadline) {
			break
		}
		q := in.queries[qi]
		traced := opt
		traced.Spans = kpj.NewSpans()
		traced.Stats = &kpj.Stats{}
		start := time.Now()
		if _, err := g.TopKJoinSets([]kpj.NodeID{q.src}, in.cat[q.cat], q.k, &traced); err != nil {
			return res, err
		}
		end := time.Now()
		phases, _ := traced.Spans.Snapshot()
		rid := int64(res.traced + 1)
		tr.add(span{Name: "engine.traced", RID: rid, Start: tr.at(start), End: tr.at(end), Replica: -1, Query: qi, Cat: q.cat})
		for i, self := range selfTimes(phases) {
			p := phases[i]
			res.selfUS[p.Name] += self
			at := start.Add(time.Duration(p.StartMicros) * time.Microsecond)
			tr.add(span{Name: "core." + p.Name, Parent: "engine.traced", RID: rid, Start: tr.at(at),
				End: tr.at(at.Add(time.Duration(p.DurMicros) * time.Microsecond)), Replica: -1, Query: qi})
		}
		res.stats.Add(*traced.Stats)
		res.traced++
	}
	return res, nil
}

// selfTimes returns each phase span's duration minus the part of it that
// phase spans nested inside it cover, in microseconds.
func selfTimes(phases []kpj.Span) []float64 {
	order := make([]int, len(phases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := phases[order[a]], phases[order[b]]
		if pa.StartMicros != pb.StartMicros {
			return pa.StartMicros < pb.StartMicros
		}
		return pa.DurMicros > pb.DurMicros
	})
	self := make([]float64, len(phases))
	var open []int
	for _, i := range order {
		p := phases[i]
		for len(open) > 0 {
			top := phases[open[len(open)-1]]
			if p.StartMicros+p.DurMicros <= top.StartMicros+top.DurMicros {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			self[open[len(open)-1]] -= float64(p.DurMicros)
		}
		self[i] += float64(p.DurMicros)
		open = append(open, i)
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

type updatePathResult struct {
	applyMS, repairMS, appendUS, checkpointMS []float64
	tablesRepaired, fullRebuilds              int
	migrated, dropped                         int
	walBytes                                  int64
	walDir                                    string // log left behind for the recovery measurement
}

// replayUpdatePath applies the run's deltas layer by layer: Graph.WithDelta
// (graph), Index.Apply plus Applied.RekeyBounds against a bounds cache
// warmed on the query mix (landmark), and wal.Log Append with a
// checkpoint every `every` records (wal).
func replayUpdatePath(in *inputs, ix *kpj.Index, deltas []*kpj.Delta, every int, dir string) (updatePathResult, error) {
	res := updatePathResult{walDir: filepath.Join(dir, "wal-replay")}
	if err := os.RemoveAll(res.walDir); err != nil {
		return res, err
	}
	l, _, err := wal.Open(res.walDir)
	if err != nil {
		return res, err
	}
	defer l.Close()
	cache := kpj.NewBoundsCache(0)
	g := in.g
	warm := func(g *kpj.Graph, ix *kpj.Index) error {
		for _, c := range sortedKeys(in.cat) {
			targets, err := g.Category(c)
			if err != nil {
				return err
			}
			src := []kpj.NodeID{in.queries[0].src}
			if _, err := g.TopKJoinSets(src, targets, 1, &kpj.Options{Index: ix, BoundsCache: cache}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(g, ix); err != nil {
		return res, err
	}
	for i, d := range deltas {
		start := time.Now()
		ng, err := g.WithDelta(d)
		if err != nil {
			return res, err
		}
		res.applyMS = append(res.applyMS, time.Since(start).Seconds()*1e3)
		start = time.Now()
		app, err := ix.Apply(d)
		if err != nil {
			return res, err
		}
		migrated, dropped := app.RekeyBounds(cache)
		res.repairMS = append(res.repairMS, time.Since(start).Seconds()*1e3)
		res.migrated += migrated
		res.dropped += dropped
		res.tablesRepaired += app.Stats.Repaired()
		if app.Stats.FullRebuild {
			res.fullRebuilds++
		}
		epoch := uint64(i + 1)
		rec := wal.Record{Epoch: epoch, Fingerprint: app.Index.Fingerprint(),
			Nodes: app.Graph.NumNodes(), Edges: app.Graph.NumEdges(), Delta: d}
		before, err := walSize(res.walDir)
		if err != nil {
			return res, err
		}
		start = time.Now()
		if err := l.Append(rec); err != nil {
			return res, err
		}
		res.appendUS = append(res.appendUS, time.Since(start).Seconds()*1e6)
		after, err := walSize(res.walDir)
		if err != nil {
			return res, err
		}
		res.walBytes += after - before
		if every > 0 && epoch%uint64(every) == 0 {
			start = time.Now()
			err := l.Checkpoint(epoch, func(w io.Writer) error {
				_, err := kpj.WriteFlat(w, app.Graph, app.Index)
				return err
			})
			if err != nil {
				return res, err
			}
			res.checkpointMS = append(res.checkpointMS, time.Since(start).Seconds()*1e3)
		}
		g, ix = ng, app.Index
		if err := warm(app.Graph, ix); err != nil {
			return res, err
		}
	}
	return res, l.Close()
}

// walSize sums the sizes of the log segments in dir.
func walSize(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// recoverLog times what a replica restarting on dir does: wal.Open, load
// the newest checkpoint (or start from the seed graph and index), and
// Server.Recover over the log suffix. It returns the records replayed.
func recoverLog(dir string, g *kpj.Graph, ix *kpj.Index) (time.Duration, int, error) {
	start := time.Now()
	l, rec, err := wal.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	if rec.CheckpointPath != "" {
		f, err := os.Open(rec.CheckpointPath)
		if err != nil {
			return 0, 0, err
		}
		g, ix, err = kpj.ReadFlat(f)
		f.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("load checkpoint: %w", err)
		}
	}
	srv := server.New(g, ix, server.WithWAL(l, 0), server.WithLogf(func(string, ...any) {}))
	if err := srv.Recover(rec); err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(rec.Records), l.Close()
}

// readFlat times OpenFlat without mmap (the fully verified read) reps times.
func readFlat(path string, reps int) ([]float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		_, _, c, err := kpj.OpenFlat(path, false)
		if err != nil {
			return nil, err
		}
		ms = append(ms, time.Since(start).Seconds()*1e3)
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
