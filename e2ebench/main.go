// Command e2ebench is the repository's end-to-end benchmark. It runs the
// deployed serving stack in process — a closed-loop client driving
// kpjrouter, which fronts two kpjserver replicas serving an mmapped flat
// file, each behind a loopback listener — on one of the workloads in
// workload.go, checks every answer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…},…}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// repeats the measured window with spans recorded around each layer's
// public entry points and reports per-layer metrics instead. README.md
// lists every metric and the end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// scale and perSet override the workload's graph scale and sources per
	// stratum; the self-test uses them for tiny runs.
	scale  float64
	perSet int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: far-join, near-poi or churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed the query sources, request streams and update deltas derive from")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for flat files, logs, traces and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	env       environment
	peakMB    float64 // VmHWM at the end of the measured window
	attempted int64
	failed    int64
	metrics   []metric
}

// report prints the run record (environment plus each metric with its
// sample count and quartiles) as one line, stores it under the work
// directory, and ends with the summary line.
func report(stdout io.Writer, o options, res *result) error {
	record, err := json.Marshal(struct {
		Env       environment `json:"env"`
		PeakRSSMB float64     `json:"peak_rss_mb"`
		Attempted int64       `json:"attempted"`
		Failed    int64       `json:"failed"`
		Metrics   []metric    `json:"metrics"`
	}{res.env, res.peakMB, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(dir, name), append(record, '\n'), 0o644); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		summary.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", record, last)
	return err
}

// bench sets the stack up setupReps times (reporting the median), then
// measures the workload.
func bench(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.scale > 0 {
		w.scale = o.scale
	}
	if o.perSet > 0 {
		w.perSet = o.perSet
	}
	windows := 1
	if o.trace {
		windows = 2
	}
	began := time.Now()
	phase := func(name string) {
		rss, _ := rssMB("VmHWM")
		fmt.Fprintf(os.Stderr, "e2ebench: %-10s done at %6.1fs, peak RSS %.0f MB\n", name, time.Since(began).Seconds(), rss)
	}
	in, err := makeInputs(w, o.seed, o.seconds, windows)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	phase("inputs")
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	var st *stack
	var setupS, buildMS, writeMS, mmapMS []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var d time.Duration
		st, d, err = startStack(w, in.g, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		buildMS = append(buildMS, st.buildDur.Seconds()*1e3)
		writeMS = append(writeMS, st.writeDur.Seconds()*1e3)
		for _, m := range st.mmapDurs {
			mmapMS = append(mmapMS, m.Seconds()*1e3)
		}
	}
	defer st.close()
	phase("set-up")

	var or *oracle
	if w.updateRate == 0 {
		if or, err = newOracle(in.g, in.cat, in.queries); err != nil {
			return nil, err
		}
	}
	phase("oracle")
	runtime.GC()
	d := newDriver(w, in, st, or, o.seed)
	defer d.close()
	d.run(warmupTime, 0, nil)
	phase("warm-up")

	res := &result{env: currentEnvironment(o)}
	first := d.run(float64(o.seconds), 1, nil)
	updates := first.updateMS
	// Memory is read at the end of the measured window, before the
	// benchmark's own checking allocates. The resident set after returning
	// free pages to the OS is what the stack retains; the peak (VmHWM)
	// depends on when the collector ran under update churn, so it is only
	// recorded.
	peak, err := rssMB("VmHWM")
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	rss, err := rssMB("VmRSS")
	if err != nil {
		return nil, err
	}
	res.peakMB = peak
	phase("window")
	var traced *window
	var tr *tracer
	var hits, misses int64
	if o.trace {
		h0, m0, err := st.cacheCounts()
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		st.tracer.Store(tr)
		traced = d.run(float64(o.seconds), 2, tr)
		h1, m1, err := st.cacheCounts()
		if err != nil {
			return nil, err
		}
		hits, misses = h1-h0, m1-m0
		phase("traced")
	}
	if w.probeUpdates > 0 {
		updates = d.probeUpdates(tr)
		phase("updates")
	}
	st.tracer.Store(nil)
	// A replica the router fences down (and resyncs) leaves the fleet
	// serving on one replica for a while, which moves every number.
	fenced, err := counter(st.routerReg, `kpj_router_transitions_total{to="down"}`)
	if err != nil {
		return nil, err
	}
	if fenced > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: the router fenced a replica down %d times during the run\n", fenced)
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	if w.updateRate > 0 {
		for _, err := range checkGenerations(in.g, in.queries, d.applied, d.samples) {
			d.fail("%v", err)
		}
		phase("check")
	}

	if !o.trace {
		// Throughput is completions over the window; its quartiles are
		// those of the per-second completions.
		qps := dist("query_qps", "1/s", first.perSecond, 0.5)
		qps.Value, qps.Samples = first.qps(), len(first.rttMS)
		res.metrics = []metric{
			dist("setup_s", "s", setupS, 0.5),
			scalar("rss_mb", "MB", rss, 1),
			qps,
			dist("query_p50_ms", "ms", first.rttMS, 0.5),
			dist("query_p99_ms", "ms", first.rttMS, 0.99),
			dist("update_p50_ms", "ms", updates, 0.5),
			dist("update_p90_ms", "ms", updates, 0.9),
		}
	} else {
		layers, err := measureLayers(w, in, st, d, first, traced, tr, dir)
		if err != nil {
			return nil, err
		}
		layers = append(layers,
			dist("landmark.build_ms", "ms", buildMS, 0.5),
			dist("flat.write_ms", "ms", writeMS, 0.5),
			dist("flat.mmap_ms", "ms", mmapMS, 0.5),
			scalar("landmark.cache_hit_frac", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses)),
			scalar("router.down_transitions", "count", float64(fenced), 1),
		)
		res.metrics = layers
		traceDir := filepath.Join(o.workdir, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed = d.attempted.Load(), d.failed.Load()
	if o.trace {
		res.metrics = append(res.metrics, scalar("fail_frac", "ratio",
			ratio(float64(res.failed), float64(res.attempted)), int(res.attempted)))
	}
	if res.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
