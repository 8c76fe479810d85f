package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphite/internal/gen"
	"graphite/internal/serve"
)

// Load shape shared by every workload: BSP workers / shards per run, and the
// most client goroutines (each with one connection) a workload may use. Both
// are fixed rather than read from the host so counts are machine-independent.
const (
	bspWorkers = 2
	maxClients = 2
)

// params sizes one run of a workload.
type params struct {
	seed    int64
	scale   gen.Scale // multiplies the generated graph's profile
	clients int       // closed-loop client goroutines
	ops     int       // operations per client
}

// workload is one named traffic mix against the system under test. A value
// is single-use: setup once, run the script, verify, close.
type workload interface {
	// setup generates the inputs from the seed, writes them under dir,
	// opens and boots the system and runs the untimed warm-up.
	setup(dir string) error
	// op runs operation i of client c — what a user waits for — and applies
	// the cheap checks (status, length, cached flag). A non-nil error counts
	// the operation as failed.
	op(c, i int, rec *recorder) error
	// verify is the untimed bit-for-bit check of everything the script was
	// served against direct core.Run references.
	verify() error
	// counters reports what the layers counted over the script just run
	// (registry counters, run metrics gathered from responses).
	counters(m *metricSet)
	// layers times calls into each layer's exported functions on this
	// workload's own inputs (traced run only) and returns the spans of the
	// shard-stepped re-run of its jobs, if it has any.
	layers(m *metricSet, dir string) ([]span, error)
	close()
}

// workloadSpec names a workload, says why it exists, and sizes it. scale
// multiplies the generated graph's profile. opsPerSec is the script length
// per client per nominal second of -seconds, probed on the 2-core bench host
// so the measured phase lasts about -seconds there; the script length is a
// pure function of -seconds, never of how fast the host turns out to be, so
// counts repeat exactly. maxOps caps it where the inputs run out.
type workloadSpec struct {
	name      string
	why       string
	clients   int
	scale     gen.Scale
	opsPerSec float64
	maxOps    int
	build     func(p params) workload
}

var workloads = []workloadSpec{
	{name: "serve_cold", clients: maxClients, scale: 1, opsPerSec: 7, maxOps: 900,
		why:   "distinct seeded queries on long-lifespan edges: warp, compute, scatter and deliver do the work; cache and wire do little",
		build: func(p params) workload { return &serveWorkload{p: p} }},
	{name: "serve_hot", clients: maxClients, scale: 1, opsPerSec: 150,
		why:   "Zipf draws from 32 warmed queries: only HTTP, fingerprint, cache lookup and JSON render run; an engine change must not move it",
		build: func(p params) workload { return &serveWorkload{p: p, hot: true} }},
	{name: "cluster_pr", clients: 1, scale: 0.2, opsPerSec: 10,
		why:   "full coordinator PageRank jobs over a 2-worker mesh: codec, outbound/deliver, wire, barrier, durable checkpoint and per-job graph open dominate",
		build: func(p params) workload { return &clusterWorkload{p: p} }},
	// At most 110 cycles: ticks 121..230 of the 240 the graph is stretched over.
	{name: "live_refresh", clients: maxClients, scale: 0.5, opsPerSec: 10, maxOps: 110,
		why:   "ingest a tick then re-query: graph rebuilt per epoch, cache invalidated by effective epoch, runs seeded rather than cold",
		build: func(p params) workload { return &liveWorkload{p: p} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// minOps is the floor on a measured script: p90 needs ten samples beyond it.
const minOps = 100

// opsPerClient sizes the measured script for a nominal duration.
func (s workloadSpec) opsPerClient(seconds int) int {
	n := int(s.opsPerSec*float64(seconds) + 0.5)
	if floor := (minOps + s.clients - 1) / s.clients; n < floor {
		n = floor
	}
	if s.maxOps > 0 && n > s.maxOps {
		n = s.maxOps
	}
	return n
}

// passResult is one run of a script: per-operation latencies plus the
// process-level deltas over the measured phase.
type passResult struct {
	latMS     []float64
	wall      time.Duration
	cpu       time.Duration
	gcCPU     float64 // seconds
	allocB    uint64
	attempted int
	failed    int
	recs      []*recorder // one per client, nil entries when untraced
}

// runPass runs the workload's script closed-loop: every client issues its
// next operation only after the previous one completed. limit bounds the
// phase so a pathologically slow system still ends inside the driver's
// per-run cap; operations not started by then count as failed.
func runPass(w workload, nc, opsPerClient int, trace bool, limit time.Duration) passResult {
	res := passResult{attempted: nc * opsPerClient, recs: make([]*recorder, nc)}
	lats := make([][]float64, nc)
	fails := make([]int, nc)
	var firstErr sync.Once

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		if trace {
			res.recs[c] = newRecorder(start)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[c] = make([]float64, 0, opsPerClient)
			for i := 0; i < opsPerClient; i++ {
				if time.Since(start) > limit {
					fails[c] += opsPerClient - i
					return
				}
				t0 := time.Now()
				err := w.op(c, i, res.recs[c])
				lats[c] = append(lats[c], float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					fails[c]++
					firstErr.Do(func() { fmt.Fprintf(os.Stderr, "benchmark: client %d op %d failed: %v\n", c, i, err) })
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	for c := range lats {
		res.latMS = append(res.latMS, lats[c]...)
		res.failed += fails[c]
	}
	return res
}

// eachClient runs fn once per client, concurrently, and returns the first
// error by client index — the shape of every untimed multi-client step
// (warm-up, verification).
func eachClient(nc int, fn func(c int) error) error {
	errs := make([]error, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// client is what one closed-loop client goroutine owns: a private transport
// capped at a single connection to the server, the buffer its responses are
// read into, and its tallies.
type client struct {
	hc     *http.Client
	buf    bytes.Buffer
	counts runCounts
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends one JSON request and reads the response to its last byte into
// c.buf, recording encode / round trip / body read as children of parent.
// Any status but 200 is an error.
func (c *client) post(rec *recorder, op, parent int, url string, body []byte) error {
	sp := rec.begin(op, "request_encode", parent)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	rec.end(sp)

	sp = rec.begin(op, "round_trip", parent)
	resp, err := c.hc.Do(req)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(op, "body_read", parent)
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	rec.end(sp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, firstBytes(c.buf.Bytes(), 200))
	}
	return nil
}

func firstBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// The cheap checks read flags out of the head of a /v1/run response instead
// of decoding ~1 MB of JSON per operation. The server renders RunResult with
// two-space indentation and the scalar fields ahead of "metrics" and
// "vertices", so everything needed sits in the first kilobyte.
const respHead = 1024

func headHas(body, field []byte) bool {
	return bytes.Contains(firstBytes(body, respHead), field)
}

var (
	cachedTrue  = []byte(`"cached": true`)
	cachedFalse = []byte(`"cached": false`)
	seededTrue  = []byte(`"seeded": true`)
)

// checkRun applies the timed loop's checks to a /v1/run response: non-empty
// and carrying the expected cached flag.
func checkRun(body []byte, wantCached bool) error {
	if len(body) == 0 {
		return fmt.Errorf("empty response")
	}
	flag := cachedFalse
	if wantCached {
		flag = cachedTrue
	}
	if !headHas(body, flag) {
		return fmt.Errorf("response does not say cached:%v: %s", wantCached, firstBytes(body, 200))
	}
	return nil
}

// runMetricsOf extracts the "metrics" object from the head of a /v1/run
// response — the paper's primitive counts for that run.
func runMetricsOf(body []byte) (serve.RunMetrics, error) {
	var m serve.RunMetrics
	head := firstBytes(body, respHead)
	i := bytes.Index(head, []byte(`"metrics": {`))
	if i < 0 {
		return m, fmt.Errorf("no metrics object in response head")
	}
	obj := head[i+len(`"metrics": `):]
	j := bytes.IndexByte(obj, '}')
	if j < 0 {
		return m, fmt.Errorf("unterminated metrics object")
	}
	return m, json.Unmarshal(obj[:j+1], &m)
}

// runCounts tallies the /v1/run responses one client read and, on a traced
// run, sums the run metrics they carry; summed over clients when the script
// ends.
type runCounts struct {
	responses int64
	respBytes int64
	seeded    int64
	serve.RunMetrics
}

// note tallies one response. withMetrics also parses its run metrics — the
// tracer's work, done outside the operation's span.
func (a *runCounts) note(body []byte, withMetrics bool) error {
	a.responses++
	a.respBytes += int64(len(body))
	if headHas(body, seededTrue) {
		a.seeded++
	}
	if !withMetrics {
		return nil
	}
	m, err := runMetricsOf(body)
	if err != nil {
		return err
	}
	a.sum(m)
	return nil
}

func (a *runCounts) sum(m serve.RunMetrics) {
	a.Supersteps += m.Supersteps
	a.ComputeCalls += m.ComputeCalls
	a.ScatterCalls += m.ScatterCalls
	a.Messages += m.Messages
	a.MessageBytes += m.MessageBytes
	a.WarpCalls += m.WarpCalls
	a.WarpSuppressed += m.WarpSuppressed
	a.ActiveIntervals += m.ActiveIntervals
}

func (a *runCounts) merge(b *runCounts) {
	a.responses += b.responses
	a.respBytes += b.respBytes
	a.seeded += b.seeded
	a.sum(b.RunMetrics)
}

// report writes the core layer's per-operation primitive counts.
func (a *runCounts) report(m *metricSet, ops int) {
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	m.set("core.compute_calls_per_op", per(a.ComputeCalls))
	m.set("core.scatter_calls_per_op", per(a.ScatterCalls))
	m.set("core.msgs_per_op", per(a.Messages))
	m.set("core.msg_bytes_per_op", per(a.MessageBytes))
	m.set("core.supersteps_per_op", per(int64(a.Supersteps)))
	m.set("core.warp_calls_per_op", per(a.WarpCalls))
	m.set("core.active_intervals_per_op", per(a.ActiveIntervals))
	if aligned := a.WarpCalls + a.WarpSuppressed; aligned > 0 {
		// Every message-group alignment either calls warp or is suppressed
		// onto the point path.
		m.set("core.warp_suppressed_share", float64(a.WarpSuppressed)/float64(aligned))
	}
}
