package main

import (
	"bytes"
	"testing"

	"graphite/internal/gen"
)

func requestBytes(qs []query) []byte {
	var b bytes.Buffer
	for _, q := range qs {
		b.Write(q.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestColdScriptDeterministic(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.1), 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coldQueries(g, 42, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := coldQueries(g, 42, 64)
	if !bytes.Equal(requestBytes(a), requestBytes(b)) {
		t.Error("same seed produced different request sequences")
	}
	c, _ := coldQueries(g, 43, 64)
	if bytes.Equal(requestBytes(a), requestBytes(c)) {
		t.Error("different seeds produced the same request sequence")
	}

	// Distinct cache identities, the full algorithm mix, and one request in
	// four windowed — spread over every algorithm.
	seen := map[string]bool{}
	windowed := map[string]int{}
	for k, q := range a {
		if seen[string(q.Body)] {
			t.Errorf("query %d repeats an earlier request: %s", k, q.Body)
		}
		seen[string(q.Body)] = true
		if q.Algo != serveAlgos[k%len(serveAlgos)] {
			t.Errorf("query %d runs %s, want round-robin %s", k, q.Algo, serveAlgos[k%len(serveAlgos)])
		}
		if q.WindowEnd > 0 {
			windowed[q.Algo]++
		}
	}
	for _, algo := range serveAlgos {
		if windowed[algo] != len(a)/16 {
			t.Errorf("%s: %d windowed requests of %d, want %d", algo, windowed[algo], len(a), len(a)/16)
		}
	}
	if _, err := coldQueries(g, 42, g.NumVertices()+1); err == nil {
		t.Error("asking for more distinct sources than the graph has did not fail")
	}
}

func TestHotScriptDeterministic(t *testing.T) {
	a, b := hotDraws(42, 0, 500, hotPool), hotDraws(42, 0, 500, hotPool)
	other, seeded := hotDraws(42, 1, 500, hotPool), hotDraws(43, 0, 500, hotPool)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed and client produced different draws")
	}
	if same(a, other) || same(a, seeded) {
		t.Error("another client or seed produced the same draws")
	}
	counts := make([]int, hotPool)
	for _, i := range a {
		if i < 0 || i >= hotPool {
			t.Fatalf("draw %d outside the pool", i)
		}
		counts[i]++
	}
	if counts[0] <= counts[hotPool-1] {
		t.Errorf("draws are not skewed toward the head of the pool: %v", counts)
	}
}

func TestLiveScriptDeterministic(t *testing.T) {
	p := params{seed: 42, scale: quickScale, ops: 10}
	a, err := newLiveClient(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newLiveClient(p, 0)
	other, err := newLiveClient(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ingest) != p.ops+1 {
		t.Fatalf("script has %d steps, want warm-up + %d", len(a.ingest), p.ops)
	}
	flat := func(lc *liveClient) []byte {
		var out bytes.Buffer
		for k := range lc.ingest {
			out.Write(lc.ingest[k])
			for _, algo := range liveAlgos {
				out.Write(lc.requery[algo][k])
			}
		}
		return out.Bytes()
	}
	if !bytes.Equal(flat(a), flat(b)) {
		t.Error("same seed and client produced different request sequences")
	}
	if bytes.Equal(flat(a), flat(other)) {
		t.Error("the two clients were given the same graph")
	}
	for k := 1; k < len(a.tick); k++ {
		if a.tick[k] <= a.tick[k-1] {
			t.Errorf("ticks not ascending: %v", a.tick)
		}
	}
}
