package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kpj"
	"kpj/internal/router"
	"kpj/internal/server"
	"kpj/internal/wal"
)

const replicas = 2

// stack is the deployed serving tier, in process: kpjrouter and two
// kpjserver replicas, each behind its own loopback listener, the replicas
// serving one flat file opened with mmap (the -flat -mmap production
// path).
type stack struct {
	flatPath  string
	ix        *kpj.Index             // the index BuildIndex produced, before it was written out
	regs      []*kpj.MetricsRegistry // one per replica
	routerReg *kpj.MetricsRegistry
	logs      []*wal.Log
	walDirs   []string
	closers   []io.Closer
	https     []*http.Server
	serving   sync.WaitGroup // one per Serve goroutine
	rt        *router.Router
	routerURL string
	// tracer, when set, makes the benchmark's handler wrappers record
	// spans; nil passes requests straight through.
	tracer atomic.Pointer[tracer]

	buildDur, writeDur time.Duration
	mmapDurs           []time.Duration
}

// startStack builds the index, writes the flat file, opens it on both
// replicas, starts the router and waits until it reports both replicas
// healthy. The returned duration is the benchmark's set-up time.
func startStack(w workload, g *kpj.Graph, dir string) (*stack, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	st := &stack{flatPath: filepath.Join(dir, "graph.flat")}
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	start := time.Now()
	ix, err := kpj.BuildIndex(g, landmarks, datasetSeed)
	if err != nil {
		return nil, 0, err
	}
	st.ix = ix
	st.buildDur = time.Since(start)
	t := time.Now()
	if err := kpj.WriteFlatFile(st.flatPath, g, ix); err != nil {
		return nil, 0, err
	}
	st.writeDur = time.Since(t)
	var cfg router.Config
	for r := 0; r < replicas; r++ {
		t := time.Now()
		fg, fix, closer, err := kpj.OpenFlat(st.flatPath, true)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.mmapDurs = append(st.mmapDurs, time.Since(t))
		st.closers = append(st.closers, closer)
		reg := kpj.NewMetricsRegistry()
		st.regs = append(st.regs, reg)
		opts := []server.Option{server.WithMetrics(reg), server.WithLogf(logf)}
		var rec *wal.Recovery
		if w.withWAL {
			walDir := filepath.Join(dir, fmt.Sprintf("wal-r%d", r))
			l, recovery, err := wal.Open(walDir)
			if err != nil {
				st.close()
				return nil, 0, err
			}
			st.logs = append(st.logs, l)
			st.walDirs = append(st.walDirs, walDir)
			rec = recovery
			opts = append(opts, server.WithWAL(l, checkpointEvery))
		}
		srv := server.New(fg, fix, opts...)
		url, err := st.serve(st.serverHandler(r, srv))
		if err != nil {
			st.close()
			return nil, 0, err
		}
		// A replica built WithWAL answers 503 until Recover has replayed
		// its log; recovering before the router exists lets the router's
		// first probe find it ready.
		if rec != nil {
			if err := srv.Recover(rec); err != nil {
				st.close()
				return nil, 0, err
			}
		}
		cfg.Replicas = append(cfg.Replicas, router.ReplicaConfig{Name: replicaName(r), URL: url})
	}
	cfg.Seed = datasetSeed
	cfg.Logf = logf
	st.routerReg = kpj.NewMetricsRegistry()
	cfg.Metrics = st.routerReg
	if st.rt, err = router.New(cfg); err != nil {
		st.close()
		return nil, 0, err
	}
	if st.routerURL, err = st.serve(st.routerHandler(st.rt)); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := st.awaitHealthy(30 * time.Second); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func replicaName(r int) string { return fmt.Sprintf("r%d", r) }

// serve starts an HTTP server for h on a fresh loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.https = append(st.https, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// awaitHealthy polls the router's /healthz until it reports every
// replica healthy. The poll interval is far below the set-up time, so
// the wait measures readiness, not the poll.
func (st *stack) awaitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := c.Get(st.routerURL + "/healthz")
		if err == nil {
			var body struct {
				Replicas map[string]struct {
					State string `json:"state"`
				} `json:"replicas"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			healthy := 0
			for _, r := range body.Replicas {
				if r.State == "healthy" {
					healthy++
				}
			}
			if derr == nil && healthy == replicas {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("router did not report %d healthy replicas within %v", replicas, limit)
}

// close stops the router, the listeners, the logs and the mappings, and
// waits for every serving goroutine to return.
func (st *stack) close() error {
	var errs []error
	if st.rt != nil {
		st.rt.Close()
	}
	for i := len(st.https) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.https[i].Shutdown(ctx))
		cancel()
	}
	st.serving.Wait()
	for _, l := range st.logs {
		errs = append(errs, l.Close())
	}
	for _, c := range st.closers {
		errs = append(errs, c.Close())
	}
	st.https, st.logs, st.closers, st.rt = nil, nil, nil, nil
	return errors.Join(errs...)
}

// cacheCounts sums the replicas' bound-cache hit and miss counters, read
// through their metrics registries.
func (st *stack) cacheCounts() (hits, misses int64, err error) {
	for _, reg := range st.regs {
		h, err := counter(reg, "kpj_bounds_cache_hits_total")
		if err != nil {
			return 0, 0, err
		}
		m, err := counter(reg, "kpj_bounds_cache_misses_total")
		if err != nil {
			return 0, 0, err
		}
		hits += h
		misses += m
	}
	return hits, misses, nil
}

// counter reads one scalar metric from a registry's JSON rendering.
func counter(reg *kpj.MetricsRegistry, name string) (int64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0, err
	}
	var vals map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vals); err != nil {
		return 0, err
	}
	var v int64
	if err := json.Unmarshal(vals[name], &v); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}
