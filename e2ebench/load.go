package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kpj"
)

// maxLoggedFailures bounds how many failing operations are printed.
const maxLoggedFailures = 20

// Churn responses are checked in full after the window, on every
// sampleStride-th query of a client, up to maxSamples in a run.
const (
	sampleStride = 10
	maxSamples   = 600
)

// driver sends the benchmark's traffic through the router and checks
// every answer.
type driver struct {
	w      workload
	in     *inputs
	st     *stack
	or     *oracle // nil when the graph changes during the run
	seed   int64
	client *http.Client
	rid    atomic.Int64

	attempted, failed atomic.Int64

	mu      sync.Mutex
	samples []sample
	applied []*kpj.Delta // applied[e-1] produced epoch e
	next    int          // next schedule entry to send
}

func newDriver(w workload, in *inputs, st *stack, or *oracle, seed int64) *driver {
	return &driver{w: w, in: in, st: st, or: or, seed: seed,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients, DisableCompression: true}}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

func (d *driver) fail(format string, args ...any) {
	if n := d.failed.Add(1); n <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

// window is what one measured interval observed.
type window struct {
	seconds   float64
	rttMS     []float64 // per completed query
	perSecond []float64 // completed queries in each whole second
	updateMS  []float64 // per accepted update, from its due time
	lateMS    float64   // how far the update generator fell behind its schedule
	stream    []int     // queries issued, in order of issue by client 0 then 1 …
}

func (w *window) qps() float64 { return float64(len(w.rttMS)) / w.seconds }

// run drives the closed-loop query clients, and the open-loop update feed
// when the workload has one, for the given time. salt separates the
// query streams of successive windows.
func (d *driver) run(seconds float64, salt int64, tr *tracer) *window {
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	end := start.Add(dur)
	res := &window{seconds: seconds, perSecond: make([]float64, int(seconds))}
	type clientLog struct {
		rtt    []float64
		done   []time.Duration
		stream []int
	}
	logs := make([]clientLog, d.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.w.clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed*7919 + salt*131 + int64(c)))
			var buf bytes.Buffer
			l := &logs[c]
			for n := 0; time.Now().Before(end); n++ {
				qi := rng.Intn(len(d.in.queries))
				rtt := d.query(qi, n, &buf, tr)
				l.rtt = append(l.rtt, rtt.Seconds()*1e3)
				l.done = append(l.done, time.Since(start))
				l.stream = append(l.stream, qi)
			}
		}()
	}
	if d.w.updateRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / d.w.updateRate)
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				if late := time.Since(due).Seconds() * 1e3; late > res.lateMS {
					res.lateMS = late
				}
				if ok := d.update(tr); ok {
					res.updateMS = append(res.updateMS, time.Since(due).Seconds()*1e3)
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range logs {
		res.rttMS = append(res.rttMS, l.rtt...)
		res.stream = append(res.stream, l.stream...)
		for _, t := range l.done {
			if s := int(t / time.Second); s < len(res.perSecond) {
				res.perSecond[s]++
			}
		}
	}
	return res
}

// probeUpdates sends the workload's sequential updates, each due as soon
// as its predecessor is answered, and returns their latencies.
func (d *driver) probeUpdates(tr *tracer) []float64 {
	var lat []float64
	for i := 0; i < d.w.probeUpdates; i++ {
		// Each update leaves a superseded graph and index per replica; a
		// collection between updates keeps the peak resident set from
		// depending on when the collector happened to run.
		runtime.GC()
		start := time.Now()
		if d.update(tr) {
			lat = append(lat, time.Since(start).Seconds()*1e3)
		}
	}
	return lat
}

// query sends one /query through the router and checks the answer. n is
// the client's query count, which picks the churn samples.
func (d *driver) query(qi, n int, buf *bytes.Buffer, tr *tracer) time.Duration {
	q := d.in.queries[qi]
	rid := d.rid.Add(1)
	d.attempted.Add(1)
	start := time.Now()
	resp, err := d.client.Get(d.st.routerURL + "/query?" + q.rawQuery(rid))
	if err != nil {
		rtt := time.Since(start)
		d.fail("query %s: %v", q.rawQuery(rid), err)
		return rtt
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if tr != nil {
		tr.add(span{Name: "client.query", RID: rid, Start: tr.at(start), End: tr.at(start.Add(rtt)),
			Replica: replicaIndex(resp.Header.Get("X-Kpj-Replica")), Query: qi, Cat: q.cat, Status: resp.StatusCode})
	}
	body := buf.Bytes()
	switch {
	case err != nil:
		d.fail("query %s: reading the answer: %v", q.rawQuery(rid), err)
	case resp.StatusCode != http.StatusOK:
		d.fail("query %s: status %d: %s", q.rawQuery(rid), resp.StatusCode, bytes.TrimSpace(body))
	case d.or != nil:
		if err := d.or.check(qi, body); err != nil {
			d.fail("query %s: %v", q.rawQuery(rid), err)
		}
	default:
		epoch, err := strconv.ParseUint(resp.Header.Get("X-Kpj-Epoch"), 10, 64)
		switch {
		case err != nil:
			d.fail("query %s: bad X-Kpj-Epoch %q", q.rawQuery(rid), resp.Header.Get("X-Kpj-Epoch"))
		case bytes.Contains(body, truncatedMark):
			d.fail("query %s: truncated answer", q.rawQuery(rid))
		case n%sampleStride == 0:
			d.mu.Lock()
			if len(d.samples) < maxSamples {
				d.samples = append(d.samples, sample{qi: qi, epoch: epoch, body: bytes.Clone(body)})
			}
			d.mu.Unlock()
		}
	}
	return rtt
}

// update POSTs the next delta of the schedule to the router's /update and
// reports whether the fleet accepted it as the next epoch.
func (d *driver) update(tr *tracer) bool {
	d.mu.Lock()
	i := d.next
	if i >= len(d.in.deltas) {
		d.mu.Unlock()
		d.attempted.Add(1)
		d.fail("update schedule exhausted after %d deltas", i)
		return false
	}
	d.next++
	epoch := uint64(len(d.applied))
	d.mu.Unlock()
	d.attempted.Add(1)
	rid := d.rid.Add(1)
	start := time.Now()
	resp, err := d.client.Post(d.st.routerURL+"/update?rid="+strconv.FormatInt(rid, 10),
		"application/json", bytes.NewReader(d.in.bodies[i]))
	if err != nil {
		d.fail("update %d: %v", i, err)
		return false
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.add(span{Name: "client.update", RID: rid, Start: tr.at(start), End: tr.at(time.Now()),
			Replica: -1, Query: -1, Status: resp.StatusCode})
	}
	if err != nil {
		d.fail("update %d: reading the answer: %v", i, err)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		d.fail("update %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		return false
	}
	got, err := strconv.ParseUint(resp.Header.Get("X-Kpj-Epoch"), 10, 64)
	if err != nil || got != epoch+1 {
		d.fail("update %d: fleet moved to epoch %q, want %d", i, resp.Header.Get("X-Kpj-Epoch"), epoch+1)
		return false
	}
	d.mu.Lock()
	d.applied = append(d.applied, d.in.deltas[i])
	d.mu.Unlock()
	return true
}
