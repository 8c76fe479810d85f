// Package loadgen is a small load driver for the graphite query service.
// It fires a mixed burst of run requests at a server — repeated identical
// requests that should collapse onto the result cache or singleflight, plus
// distinct ones that must execute — and reads the server's /metrics
// exposition back so callers can assert on cache behaviour. It backs the
// `make serve-smoke` target via cmd/graphite-loadgen.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphite/internal/obs"
)

// Request is one run request POSTed to /v1/run. It mirrors serve.RunRequest's
// wire shape; loadgen keeps its own copy so it exercises the server strictly
// through the public HTTP surface.
type Request struct {
	Graph     string           `json:"graph"`
	Algorithm string           `json:"algorithm"`
	Params    map[string]int64 `json:"params,omitempty"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
}

// Result summarises a burst: per-status counts and basic latency stats.
type Result struct {
	Requests  int
	ByStatus  map[int]int
	Errors    []string
	Elapsed   time.Duration
	CacheHits int64 // fraction of 200s that the server marked "cached": true
}

// Fire sends each request repeat times with conc concurrent clients and
// collects the outcome. Every response body is fully drained so connections
// are reused.
func Fire(baseURL string, reqs []Request, repeat, conc int) (*Result, error) {
	if repeat < 1 {
		repeat = 1
	}
	if conc < 1 {
		conc = 1
	}
	type item struct{ body []byte }
	var work []item
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshal request: %w", err)
		}
		for i := 0; i < repeat; i++ {
			work = append(work, item{body: b})
		}
	}

	res := &Result{Requests: len(work), ByStatus: map[int]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan item)
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				status, cached, err := post(client, baseURL+"/v1/run", it.body)
				mu.Lock()
				if err != nil {
					res.Errors = append(res.Errors, err.Error())
				} else {
					res.ByStatus[status]++
					if cached {
						res.CacheHits++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range work {
		ch <- it
	}
	close(ch)
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

func post(client *http.Client, url string, body []byte) (status int, cached bool, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var out struct {
		Cached bool `json:"cached"`
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, false, err
	}
	if resp.StatusCode == http.StatusOK {
		_ = json.Unmarshal(data, &out)
	}
	return resp.StatusCode, out.Cached, nil
}

// Metrics scrapes /metrics and returns every sample of the exposition:
// sample name, with its label block if it has one, → value.
func Metrics(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /metrics: HTTP %d", resp.StatusCode)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("loadgen: /metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: /metrics: sample %q: %w", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, sc.Err()
}

// Metric reads a counter from a Metrics scrape by its registry name,
// returning 0 if absent.
func Metric(samples map[string]float64, name string) float64 {
	return samples[obs.PromName(name, "counter")]
}
