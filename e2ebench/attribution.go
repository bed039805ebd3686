package main

import (
	"os"
	"sort"
	"time"
)

// measureLayers derives the per-layer metrics of a traced run: the
// serving tier from the spans of the traced window, the engine, landmark,
// graph, WAL and flat layers from direct calls on the same graph and
// traffic. plain is the untraced window that preceded the traced one.
func measureLayers(w workload, in *inputs, st *stack, d *driver, plain, traced *window, tr *tracer, dir string) ([]metric, error) {
	var clientQ, routerQ, serverQ, routerU, serverU []span
	for _, s := range tr.snapshot() {
		switch s.Name {
		case "client.query":
			clientQ = append(clientQ, s)
		case "router.query":
			routerQ = append(routerQ, s)
		case "server.query":
			serverQ = append(serverQ, s)
		case "router.update":
			routerU = append(routerU, s)
		case "server.update":
			serverU = append(serverU, s)
		}
	}

	// Router self time: its span minus the span of the attempt that won.
	attempts := map[int64][]span{}
	var handlerUS, respBytes, updateUS, fanoutUS []float64
	for _, s := range serverQ {
		attempts[s.RID] = append(attempts[s.RID], s)
		handlerUS = append(handlerUS, s.durUS())
		respBytes = append(respBytes, float64(s.Bytes))
	}
	winner := map[int64]span{}    // by request id: the server span that answered
	selfUS := map[int64]float64{} // by request id: router span minus winner span
	for _, r := range routerQ {
		for _, s := range attempts[r.RID] {
			if s.Replica == r.Replica {
				winner[r.RID] = s
				selfUS[r.RID] = r.durUS() - s.durUS()
			}
		}
	}
	// Fan-out overhead: the router's /update span minus the slowest
	// replica /update span inside it.
	for _, s := range serverU {
		updateUS = append(updateUS, s.durUS())
	}
	for _, r := range routerU {
		slowest := -1.0
		for _, s := range serverU {
			if s.Start >= r.Start && s.End <= r.End && s.durUS() > slowest {
				slowest = s.durUS()
			}
		}
		if slowest >= 0 {
			fanoutUS = append(fanoutUS, r.durUS()-slowest)
		}
	}
	// Affinity: did a category's query land on the replica that served the
	// category's previous query? And how uneven is the split?
	sort.Slice(clientQ, func(i, j int) bool { return clientQ[i].End < clientQ[j].End })
	lastReplica := map[string]int{}
	perReplica := map[int]int{}
	var home, repeat, answered int
	for _, c := range clientQ {
		if c.Replica < 0 {
			continue
		}
		answered++
		perReplica[c.Replica]++
		if prev, ok := lastReplica[c.Cat]; ok {
			repeat++
			if prev == c.Replica {
				home++
			}
		}
		lastReplica[c.Cat] = c.Replica
	}
	largest := 0
	for _, n := range perReplica {
		largest = max(largest, n)
	}

	eng, err := replayEngine(in.g, st.ix, in, traced.stream, time.Duration(traced.seconds*float64(time.Second))/2, tr)
	if err != nil {
		return nil, err
	}
	// Split each answered query's round trip into engine (the replayed
	// engine time of the same query), server (its handler span minus
	// that), router (self time) and the rest (client and loopback).
	engineOf := map[int]float64{}
	for qi, us := range eng.byQuery {
		engineOf[qi] = dist("", "", us, 0.5).Value
	}
	var routerSelf, serverOver []float64
	var rttSum, engineSum, servingSum float64
	for _, c := range clientQ {
		s, ok := winner[c.RID]
		e, replayed := engineOf[c.Query]
		if !ok {
			continue
		}
		routerSelf = append(routerSelf, selfUS[c.RID])
		if !replayed {
			continue
		}
		serverOver = append(serverOver, s.durUS()-e)
		rttSum += c.durUS()
		engineSum += e
		servingSum += selfUS[c.RID] + s.durUS() - e
	}
	n := float64(eng.traced)
	ms := []metric{
		dist("engine.query_us_p50", "us", eng.queryUS, 0.5),
		dist("engine.query_us_p99", "us", eng.queryUS, 0.99),
		scalar("engine.rtt_share", "ratio", ratio(engineSum, rttSum), len(serverOver)),
		scalar("serving.rtt_share", "ratio", ratio(servingSum, rttSum), len(serverOver)),
		scalar("core.pops_per_query", "count", float64(eng.stats.NodesPopped)/n, eng.traced),
		scalar("core.relax_per_query", "count", float64(eng.stats.EdgesRelaxed)/n, eng.traced),
		scalar("core.spt_nodes_per_query", "count", float64(eng.stats.SPTNodes)/n, eng.traced),
		scalar("core.searches_per_query", "count", float64(eng.stats.Searches)/n, eng.traced),
		scalar("core.tau_rounds_per_query", "count", float64(eng.stats.TauRounds)/n, eng.traced),
		dist("router.self_us_p50", "us", routerSelf, 0.5),
		scalar("router.attempts_per_query", "count", ratio(float64(len(serverQ)), float64(len(routerQ))), len(routerQ)),
		scalar("router.home_frac", "ratio", ratio(float64(home), float64(repeat)), repeat),
		scalar("router.replica_skew", "ratio", ratio(float64(largest), float64(answered)), answered),
		dist("router.fanout_us_p50", "us", fanoutUS, 0.5),
		dist("server.handler_us_p50", "us", handlerUS, 0.5),
		dist("server.handler_us_p99", "us", handlerUS, 0.99),
		dist("server.overhead_us_p50", "us", serverOver, 0.5),
		scalar("server.resp_bytes_per_query", "B", mean(respBytes), len(respBytes)),
		dist("server.update_us_p50", "us", updateUS, 0.5),
		scalar("loadgen.late_ms_max", "ms", max(plain.lateMS, traced.lateMS), len(plain.updateMS)+len(traced.updateMS)),
		scalar("loadgen.empty_deltas_skipped", "count", float64(in.empties), len(in.deltas)+in.empties),
		scalar("trace.overhead_frac", "ratio", 1-ratio(traced.qps(), plain.qps()), len(traced.rttMS)),
	}
	for _, p := range enginePhases {
		ms = append(ms, scalar("core."+p+"_us", "us", eng.selfUS[p]/n, eng.traced))
	}

	upd, err := replayUpdatePath(in, st.ix, d.applied, checkpointEvery, dir)
	if err != nil {
		return nil, err
	}
	deltas := len(upd.repairMS)
	nd := float64(deltas)
	ms = append(ms,
		dist("landmark.repair_ms_p50", "ms", upd.repairMS, 0.5),
		scalar("landmark.tables_repaired_per_update", "count", float64(upd.tablesRepaired)/nd, deltas),
		scalar("landmark.full_rebuild_frac", "ratio", float64(upd.fullRebuilds)/nd, deltas),
		scalar("landmark.cache_migrated_frac", "ratio", ratio(float64(upd.migrated), float64(upd.migrated+upd.dropped)), upd.migrated+upd.dropped),
		dist("graph.apply_ms_p50", "ms", upd.applyMS, 0.5),
		dist("wal.append_us_p90", "us", upd.appendUS, 0.9),
		scalar("wal.bytes_per_update", "B", float64(upd.walBytes)/nd, deltas),
		dist("wal.checkpoint_ms", "ms", upd.checkpointMS, 0.5),
	)
	// Recovery replays a replica's own log where the stack kept one, and
	// the replayed log otherwise.
	logDir := upd.walDir
	if w.withWAL {
		logDir = st.walDirs[0]
	}
	recoverDur, replayed, err := recoverLog(logDir, in.g, st.ix)
	if err != nil {
		return nil, err
	}
	readMS, err := readFlat(st.flatPath, 3)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(st.flatPath)
	if err != nil {
		return nil, err
	}
	ms = append(ms,
		scalar("wal.recover_ms", "ms", recoverDur.Seconds()*1e3, 1),
		scalar("wal.records_replayed", "count", float64(replayed), 1),
		dist("flat.read_ms", "ms", readMS, 0.5),
		scalar("flat.file_mb", "MB", float64(fi.Size())/(1<<20), 1),
	)
	return ms, nil
}
