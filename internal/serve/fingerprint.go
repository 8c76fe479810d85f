package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"graphite/internal/algorithms"
	ival "graphite/internal/interval"
)

// The request fingerprint is the cache-correctness linchpin: two requests
// share a fingerprint exactly when they are guaranteed to produce the same
// result. Everything semantic (graph, algorithm, effective parameters,
// normalized time window) is folded in, and so is the effective worker count:
// a run repeats bit for bit at one worker count, but a float fold such as
// PageRank's sum adds its messages in an order the partition sets, so its bits
// can differ across worker counts. Everything else operational (timeout,
// tracing) is excluded, so it cannot split the cache.

// paramKeys are the algorithm parameters a run request may carry, matching
// algorithms.Params field for field.
var paramKeys = []string{"deadline", "iterations", "source", "start", "target"}

// CanonicalAlgo lowercases an algorithm name and resolves catalog aliases
// ("pagerank" → "pr") so spelling variants share a fingerprint. Unknown names
// are rejected here, before any admission or cache work happens.
func CanonicalAlgo(name string) (string, error) {
	a := strings.ToLower(strings.TrimSpace(name))
	if a == "pagerank" {
		a = "pr"
	}
	for _, n := range algorithms.Names() {
		if a == n {
			return a, nil
		}
	}
	return "", fmt.Errorf("%w: unknown algorithm %q (have %s)",
		ErrBadRequest, name, strings.Join(algorithms.Names(), " "))
}

// normalizeParams validates the request's parameter map and resolves it to
// its effective values: every key present, catalog defaults applied. The
// canonical form makes {"source": 0} and {} fingerprint-identical, and an
// explicit target equal to the source identical to an omitted one (the
// catalog defaults target to source).
func normalizeParams(in map[string]int64) (map[string]int64, error) {
	out := make(map[string]int64, len(paramKeys))
	for k, v := range in {
		ok := false
		for _, allowed := range paramKeys {
			if k == allowed {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: unknown parameter %q (have %s)",
				ErrBadRequest, k, strings.Join(paramKeys, " "))
		}
		if v < 0 {
			return nil, fmt.Errorf("%w: parameter %q is negative", ErrBadRequest, k)
		}
		out[k] = v
	}
	if _, ok := out["target"]; !ok {
		out["target"] = out["source"]
	}
	if out["iterations"] == 0 {
		out["iterations"] = algorithms.DefaultPRIterations
	}
	for _, k := range paramKeys {
		if _, ok := out[k]; !ok {
			out[k] = 0
		}
	}
	return out, nil
}

// normalizeWindow resolves a request window to a canonical interval: nil
// means the graph's full lifetime, End <= 0 means unbounded. Semantically
// identical windows ({start: 0} with no end, nil, {0, -1}) all normalize to
// [0, ∞).
func normalizeWindow(w *Window) (ival.Interval, error) {
	if w == nil {
		return ival.Universe, nil
	}
	if w.Start < 0 {
		return ival.Interval{}, fmt.Errorf("%w: window start %d is negative", ErrBadRequest, w.Start)
	}
	end := ival.Infinity
	if w.End > 0 {
		end = ival.Time(w.End)
	}
	iv := ival.New(ival.Time(w.Start), end)
	if iv.IsEmpty() {
		return ival.Interval{}, fmt.Errorf("%w: empty window [%d, %d)", ErrBadRequest, w.Start, w.End)
	}
	return iv, nil
}

// windowLabel renders a normalized window for fingerprints and responses;
// the unbounded end prints as "inf" rather than the Infinity sentinel.
func windowLabel(w ival.Interval) string {
	if w.End == ival.Infinity {
		return fmt.Sprintf("[%d,inf)", w.Start)
	}
	return fmt.Sprintf("[%d,%d)", w.Start, w.End)
}

// paramsKey renders canonical parameters as "k=v,..." in sorted key order —
// the parameter component of both the fingerprint preimage and the
// incremental seed-cache key.
func paramsKey(params map[string]int64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, params[k])
	}
	return b.String()
}

// Fingerprint returns the canonical cache key for a run over the named graph:
// algorithm aliases resolved, parameters at their effective values in sorted
// order, window normalized, and the effective worker count, which PR, LCC and
// TC's result bits depend on. The inputs must already be canonical (the server
// fingerprints only prepared requests); for live graphs the graph identity
// carries the window's effective epoch ("name@7"), which is what invalidates
// cached results for windows a mutation batch touched while leaving untouched
// windows cached. The digest is hex SHA-256.
func Fingerprint(graph, algo string, params map[string]int64, window ival.Interval, workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g=%s|a=%s|%s|w=%s|n=%d", graph, algo, paramsKey(params), windowLabel(window), workers)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
