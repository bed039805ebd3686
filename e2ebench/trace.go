package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded by
// the benchmark's own wrappers; the program itself is not instrumented.
// Spans of one query share its request id (the rid URL parameter, which
// the router forwards verbatim and the server ignores). The router does
// not forward query parameters on /update, so a server.update span is
// linked to the router.update span whose interval contains it.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	RID     int64  `json:"rid,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Replica int    `json:"replica"` // serving replica; -1 when none
	Query   int    `json:"query"`   // index of the query in the mix; -1 when none
	Cat     string `json:"cat,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Status  int    `json:"status,omitempty"`
}

func (s span) durUS() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ridOf extracts the benchmark's request id, always the last parameter.
func ridOf(rawQuery string) int64 {
	i := strings.LastIndex(rawQuery, "rid=")
	if i < 0 {
		return 0
	}
	id, _ := strconv.ParseInt(rawQuery[i+4:], 10, 64)
	return id
}

func replicaIndex(name string) int {
	if strings.HasPrefix(name, "r") {
		if i, err := strconv.Atoi(name[1:]); err == nil {
			return i
		}
	}
	return -1
}

// opName maps the two traced routes to span operation names.
func opName(path string) string {
	switch path {
	case "/query":
		return "query"
	case "/update":
		return "update"
	}
	return ""
}

// recorder counts the bytes and keeps the status a handler writes.
type recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// serverHandler times Server.ServeHTTP for /query and /update while a
// tracer is installed.
func (st *stack) serverHandler(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := st.tracer.Load()
		op := opName(r.URL.Path)
		if tr == nil || op == "" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		tr.add(span{Name: "server." + op, Parent: "router." + op, RID: ridOf(r.URL.RawQuery),
			Start: tr.at(start), End: tr.at(end), Replica: replica, Query: -1, Bytes: rec.bytes, Status: rec.status})
	})
}

// routerHandler times Router.ServeHTTP for /query and /update while a
// tracer is installed, and notes which replica answered.
func (st *stack) routerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := st.tracer.Load()
		op := opName(r.URL.Path)
		if tr == nil || op == "" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		tr.add(span{Name: "router." + op, Parent: "client." + op, RID: ridOf(r.URL.RawQuery),
			Start: tr.at(start), End: tr.at(end), Replica: replicaIndex(w.Header().Get("X-Kpj-Replica")),
			Query: -1, Bytes: rec.bytes, Status: rec.status})
	})
}
