package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/leaktest"
)

// Server-side chaos tests: injected faults at the server.handler and
// index.load points must degrade service (breaker, old-index retention),
// never corrupt it.

func installFaults(t *testing.T, r *fault.Registry) {
	t.Helper()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(nil) })
}

// TestBreakerDegradedMode walks the full breaker lifecycle under an
// injected two-request fault window with WithBreaker(2, 2):
//
//	req 1: fault at full power, breaker still closed        -> 500
//	req 2: fault trips the breaker, retried once degraded   -> 200 degraded
//	req 3: breaker open, runs degraded, clean (probe 2/2)   -> 200 degraded, closes
//	req 4: breaker closed again                             -> 200 normal
func TestBreakerDegradedMode(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithBreaker(2, 2))
	installFaults(t, fault.New().Add(
		fault.Rule{Point: fault.ServerHandler, Nth: 1, Count: 2}))

	const url = "/query?source=0&category=hotel&k=3"

	rec, body := get(t, s, url)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("req 1: status %d, want 500 (%s)", rec.Code, body)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("req 2 (trip + degraded retry): status %d (%s)", rec.Code, body)
	}
	if rec.Header().Get("X-Kpj-Degraded") != "1" {
		t.Fatal("req 2: missing X-Kpj-Degraded header on degraded retry")
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || len(out.Paths) != 3 {
		t.Fatalf("req 2: degraded=%v paths=%d, want degraded with 3 paths", out.Degraded, len(out.Paths))
	}

	// While open, /healthz reports the default algorithm's breaker open.
	hrec, hbody := get(t, s, "/healthz")
	var health struct {
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("healthz (%d): %v", hrec.Code, err)
	}
	if health.Breakers["IterBoundI"] != "open" {
		t.Fatalf("healthz breakers = %v, want IterBoundI open", health.Breakers)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Degraded") != "1" {
		t.Fatalf("req 3: status %d degraded=%q (%s)", rec.Code, rec.Header().Get("X-Kpj-Degraded"), body)
	}

	rec, body = get(t, s, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("req 4: status %d (%s)", rec.Code, body)
	}
	if rec.Header().Get("X-Kpj-Degraded") != "" {
		t.Fatal("req 4: breaker should have closed after two clean probes")
	}
	if _, hbody = get(t, s, "/healthz"); json.Unmarshal(hbody, &health) != nil ||
		health.Breakers["IterBoundI"] != "closed" {
		t.Fatalf("healthz after recovery: %v", health.Breakers)
	}
}

// TestBreakerInjectedPanicCounts: a KindPanic injection at the handler is
// recovered into ErrWorkerPanic, answers 500, and counts toward the
// breaker like any other internal fault — the process never dies.
func TestBreakerInjectedPanicCounts(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := testServer(t, WithBreaker(1, 1))
	installFaults(t, fault.New().Add(
		fault.Rule{Point: fault.ServerHandler, Nth: 1, Count: 1, Kind: fault.KindPanic}))

	// The panic trips the one-strike breaker; the degraded retry succeeds.
	rec, body := get(t, s, "/query?source=0&category=hotel&k=2")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Kpj-Degraded") != "1" {
		t.Fatalf("status %d degraded=%q (%s)", rec.Code, rec.Header().Get("X-Kpj-Degraded"), body)
	}
	// One clean degraded probe closes it again.
	rec, _ = get(t, s, "/query?source=0&category=hotel&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("probe: status %d", rec.Code)
	}
	if rec, _ := get(t, s, "/query?source=0&category=hotel&k=2"); rec.Header().Get("X-Kpj-Degraded") != "" {
		t.Fatal("breaker should be closed after the clean probe")
	}
}

// TestBreakerIgnoresTruncation: deadline truncation is the bound working
// as designed and must never open the breaker.
func TestBreakerIgnoresTruncation(t *testing.T) {
	defer leaktest.Check(t)()
	s := slowServer(t, WithTimeout(2*time.Millisecond), WithBreaker(1, 1))
	for i := 0; i < 3; i++ {
		rec, body := get(t, s, "/query?source=0&category=far&k=5000")
		if rec.Code != http.StatusOK {
			t.Fatalf("truncated query %d: status %d (%s)", i, rec.Code, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Truncated {
			t.Skipf("query %d finished under the deadline; timing too fast to assert", i)
		}
		if out.Degraded || rec.Header().Get("X-Kpj-Degraded") != "" {
			t.Fatalf("truncation opened the one-strike breaker on query %d", i)
		}
	}
}

// TestReloadIndexFaulted is the hot-reload acceptance check: an injected
// index.load fault during reload must leave the old index serving, and a
// subsequent clean reload must succeed.
func TestReloadIndexFaulted(t *testing.T) {
	defer leaktest.Check(t)()
	s, g := testServer(t)
	old := s.index()
	if old == nil {
		t.Fatal("testServer should serve an index")
	}

	// Write a loadable flat file for the reload to target.
	path := writeFlatIndex(t, g, 99)

	installFaults(t, fault.New().Add(fault.Rule{Point: fault.IndexLoad, Nth: 1, Count: 1}))
	if err := s.ReloadIndex(path); err == nil {
		t.Fatal("reload under injected index.load fault should fail")
	}
	if s.index() != old {
		t.Fatal("failed reload replaced the serving index")
	}
	// The old index still serves queries.
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reload: status %d (%s)", rec.Code, body)
	}

	// The fault window has passed: the same reload now succeeds and swaps.
	if err := s.ReloadIndex(path); err != nil {
		t.Fatalf("clean reload: %v", err)
	}
	if s.index() == old {
		t.Fatal("clean reload did not swap the index")
	}
	if rec, body := get(t, s, "/query?source=0&category=hotel&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query after clean reload: status %d (%s)", rec.Code, body)
	}
}

// writeFlatIndex writes g with a fresh seed-selected index to a flat
// file, the input ReloadIndex takes, and returns its path.
func writeFlatIndex(t *testing.T, g *kpj.Graph, seed int64) string {
	t.Helper()
	ix, err := kpj.BuildIndex(g, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "landmarks.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadIndexBadFile: reloads from a missing, corrupt or index-less
// file keep the old index without needing fault injection.
func TestReloadIndexBadFile(t *testing.T) {
	s, _ := testServer(t)
	old := s.index()
	if err := s.ReloadIndex(filepath.Join(t.TempDir(), "nope.kpjflat")); err == nil {
		t.Fatal("reload from a missing file should fail")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.kpjflat")
	if err := os.WriteFile(garbage, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(garbage); err == nil {
		t.Fatal("reload from a corrupt file should fail")
	}
	// A well-formed flat file of the serving graph that carries no index.
	bare := filepath.Join(t.TempDir(), "bare.kpjflat")
	if err := kpj.WriteFlatFile(bare, s.snapshot().g, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadIndex(bare); err == nil {
		t.Fatal("reload from a file without an index should fail")
	}
	if s.index() != old {
		t.Fatal("failed reloads must keep the old index")
	}
	if rec, _ := get(t, s, "/query?source=0&category=hotel&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reloads: status %d", rec.Code)
	}
}

// TestReloadIndexGeneration binds reloads to the serving graph
// generation. A file written before a POI-only update still matches the
// adjacency, so it reloads and the live categories keep serving. After
// an update that moves weight from one edge to another — node count,
// edge count and total weight all unchanged — the same file is rejected
// with kpj.ErrIndexMismatch, and the epoch and every engine's answers
// stay as they were.
func TestReloadIndexGeneration(t *testing.T) {
	s, g := testServer(t)
	path := writeFlatIndex(t, g, 99)

	if rec, body := postUpdate(t, s, `{"addPOIs":[{"node":7,"category":"hotel"}]}`); rec.Code != http.StatusOK {
		t.Fatalf("POI update: %d %s", rec.Code, body)
	}
	if err := s.ReloadIndex(path); err != nil {
		t.Fatalf("reload over an unchanged adjacency: %v", err)
	}
	if e := s.Epoch(); e != 2 {
		t.Fatalf("epoch after update and reload = %d, want 2", e)
	}
	if !s.snapshot().g.InCategory("hotel", 7) {
		t.Fatal("reload dropped the live POI added by the update")
	}

	const move = `{"setWeights":[{"u":0,"v":1,"w":4},{"u":1,"v":2,"w":16}]}`
	if rec, body := postUpdate(t, s, move); rec.Code != http.StatusOK {
		t.Fatalf("weight move: %d %s", rec.Code, body)
	}
	epoch := s.Epoch()
	const query = "/query?source=0&category=hotel&k=5"
	before := engineAnswers(t, s, query)
	err := s.ReloadIndex(path)
	if !errors.Is(err, kpj.ErrIndexMismatch) {
		t.Fatalf("reload of a pre-update file: err = %v, want kpj.ErrIndexMismatch", err)
	}
	if e := s.Epoch(); e != epoch {
		t.Fatalf("rejected reload moved the epoch %d -> %d", epoch, e)
	}
	if after := engineAnswers(t, s, query); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected reload changed answers:\nbefore %v\nafter  %v", before, after)
	}
}
