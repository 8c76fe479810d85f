package serve

import (
	"errors"
	"strings"
	"testing"

	ival "graphite/internal/interval"
)

// fp canonicalizes like the server does (prepare does the same dance) and
// fingerprints the result; t.Fatal on anything a valid request wouldn't hit.
func fp(t *testing.T, graph, algo string, params map[string]int64, w *Window) string {
	t.Helper()
	a, err := CanonicalAlgo(algo)
	if err != nil {
		t.Fatalf("CanonicalAlgo(%q): %v", algo, err)
	}
	ps, err := normalizeParams(params)
	if err != nil {
		t.Fatalf("normalizeParams(%v): %v", params, err)
	}
	win, err := normalizeWindow(w)
	if err != nil {
		t.Fatalf("normalizeWindow(%v): %v", w, err)
	}
	return Fingerprint(graph, a, ps, win, 2)
}

func TestFingerprintEquivalentRequests(t *testing.T) {
	base := fp(t, "g", "sssp", map[string]int64{"source": 1}, nil)
	equivalent := []struct {
		name   string
		algo   string
		params map[string]int64
		w      *Window
	}{
		{"explicit target equal to source", "sssp", map[string]int64{"source": 1, "target": 1}, nil},
		{"explicit zero defaults", "sssp", map[string]int64{"source": 1, "start": 0, "deadline": 0}, nil},
		{"uppercase algorithm", "SSSP", map[string]int64{"source": 1}, nil},
		{"nil window vs zero window", "sssp", map[string]int64{"source": 1}, &Window{Start: 0, End: 0}},
		{"unbounded end spelled -0 vs omitted", "sssp", map[string]int64{"source": 1}, &Window{}},
	}
	for _, tc := range equivalent {
		if got := fp(t, "g", tc.algo, tc.params, tc.w); got != base {
			t.Errorf("%s: fingerprint diverged\n got %s\nwant %s", tc.name, got, base)
		}
	}
}

func TestFingerprintAlgorithmAlias(t *testing.T) {
	pr := fp(t, "g", "pr", nil, nil)
	if got := fp(t, "g", "pagerank", nil, nil); got != pr {
		t.Errorf("pagerank alias split the cache: %s vs %s", got, pr)
	}
	// And the default iteration count is folded in, so an explicit default is
	// identical to an omitted one.
	if got := fp(t, "g", "pr", map[string]int64{"iterations": 10}, nil); got != pr {
		t.Errorf("explicit default iterations split the cache: %s vs %s", got, pr)
	}
}

func TestFingerprintDistinctRequests(t *testing.T) {
	base := fp(t, "g", "sssp", map[string]int64{"source": 1}, nil)
	distinct := map[string]string{
		"different graph":     fp(t, "g2", "sssp", map[string]int64{"source": 1}, nil),
		"different algorithm": fp(t, "g", "eat", map[string]int64{"source": 1}, nil),
		"different source":    fp(t, "g", "sssp", map[string]int64{"source": 2}, nil),
		"different target":    fp(t, "g", "sssp", map[string]int64{"source": 1, "target": 3}, nil),
		"different start":     fp(t, "g", "sssp", map[string]int64{"source": 1, "start": 4}, nil),
		"bounded window":      fp(t, "g", "sssp", map[string]int64{"source": 1}, &Window{Start: 0, End: 5}),
		"shifted window":      fp(t, "g", "sssp", map[string]int64{"source": 1}, &Window{Start: 2}),
	}
	seen := map[string]string{base: "base"}
	for name, got := range distinct {
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, got)
		}
		seen[got] = name
	}
}

func TestCanonicalAlgoRejectsUnknown(t *testing.T) {
	if _, err := CanonicalAlgo("dijkstra"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown algorithm: got %v, want ErrBadRequest", err)
	}
}

func TestNormalizeParamsRejects(t *testing.T) {
	if _, err := normalizeParams(map[string]int64{"sources": 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown key: got %v, want ErrBadRequest", err)
	}
	if _, err := normalizeParams(map[string]int64{"source": -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative value: got %v, want ErrBadRequest", err)
	}
}

func TestNormalizeWindow(t *testing.T) {
	if _, err := normalizeWindow(&Window{Start: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative start: got %v, want ErrBadRequest", err)
	}
	if _, err := normalizeWindow(&Window{Start: 5, End: 5}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty window: got %v, want ErrBadRequest", err)
	}
	w, err := normalizeWindow(nil)
	if err != nil || w != ival.Universe {
		t.Fatalf("nil window: got %v, %v; want Universe", w, err)
	}
	if lbl := windowLabel(w); lbl != "[0,inf)" {
		t.Fatalf("universe label: got %q", lbl)
	}
	w, err = normalizeWindow(&Window{Start: 2, End: 7})
	if err != nil {
		t.Fatal(err)
	}
	if lbl := windowLabel(w); lbl != "[2,7)" {
		t.Fatalf("bounded label: got %q", lbl)
	}
}

func TestFingerprintShape(t *testing.T) {
	got := fp(t, "g", "sssp", nil, nil)
	if len(got) != 64 || strings.ToLower(got) != got {
		t.Fatalf("fingerprint is not lowercase hex sha256: %q", got)
	}
}
