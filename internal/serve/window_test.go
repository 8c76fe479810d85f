package serve

// A served window is a view (core.Options.Window) for every catalog
// algorithm. The answer, the counts and the 400s are those of a run over
// tgraph.Slice of the window that places each vertex as the view does.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// oldSortedIDs and oldFormatResult are FormatResult as it was before it
// walked the graph's own id order: every id copied out and re-sorted, every
// state then searched for by id. Kept as the pin for the rendering.
func oldSortedIDs(g *tgraph.Graph, top int) []tgraph.VertexID {
	ids := make([]tgraph.VertexID, 0, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		ids = append(ids, g.VertexAt(i).ID)
	}
	slices.Sort(ids)
	if top > 0 && len(ids) > top {
		ids = ids[:top]
	}
	return ids
}

func oldFormatResult(r *core.Result, top int) []string {
	lines := make([]string, 0, r.Graph.NumVertices())
	for _, id := range oldSortedIDs(r.Graph, top) {
		st := r.StateByID(id)
		parts := make([]string, 0, st.NumParts())
		for _, p := range st.Parts() {
			parts = append(parts, p.Interval.String()+"="+formatValue(p.Value))
		}
		lines = append(lines, fmt.Sprintf("vertex %d: %s", id, strings.Join(parts, " ")))
	}
	return lines
}

// churnGraph is a generated graph whose vertices are born and die inside its
// lifetime, built and opened from a snapshot file: ids are not in dense
// order, and the mapped copy finds them by binary search.
func churnGraph(t testing.TB) (built, mapped *tgraph.Graph) {
	t.Helper()
	built, err := gen.Generate(gen.MAGLike(0.05), 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gsn")
	if err := tgraph.WriteSnapshotFile(path, built); err != nil {
		t.Fatal(err)
	}
	m, err := tgraph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return built, m.Graph
}

// earlySource returns the source of the first edge born before the given
// time: a vertex every window [0, end >= before) keeps, with somewhere to go.
func earlySource(t testing.TB, g *tgraph.Graph, before int64) tgraph.VertexID {
	t.Helper()
	for i := range g.Edges() {
		if e := g.Edge(i); e.Lifespan.Start < before {
			return e.Src
		}
	}
	t.Fatalf("no edge is born before %d", before)
	return 0
}

// TestFormatResultPinned: graphite-run's output and the served vertices list
// are byte for byte what the old body rendered, on built and mapped graphs,
// whole and truncated; a windowed result lists exactly the vertices the
// window kept.
func TestFormatResultPinned(t *testing.T) {
	built, mapped := churnGraph(t)
	shuffled := tgraph.NewBuilder(4, 2).AddVertex(30, ival.New(0, 4)).AddVertex(10, ival.New(2, 9)).
		AddVertex(20, ival.New(0, 9)).AddVertex(5, ival.New(6, 9)).
		AddEdge(1, 10, 20, ival.New(2, 8)).AddEdge(2, 20, 5, ival.New(6, 9)).MustBuild()
	for name, g := range map[string]*tgraph.Graph{"built": built, "mapped": mapped, "shuffled": shuffled, "transit": tgraph.TransitExample()} {
		for _, algo := range []string{"sssp", "wcc", "pr", "tmst"} {
			prog, opts, err := algorithms.New(g, algo, algorithms.Params{Source: g.Edge(0).Src})
			if err != nil {
				t.Fatal(err)
			}
			opts.NumWorkers = 2
			r, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, top := range []int{0, 1, 7, g.NumVertices(), g.NumVertices() + 3} {
				if got, want := FormatResult(r, top), oldFormatResult(r, top); !slices.Equal(got, want) {
					t.Errorf("%s/%s top %d: FormatResult no longer renders what it rendered", name, algo, top)
				}
			}
			served := buildResult(&prepared{window: ival.Universe}, r)
			if got, want := served.FormatLines(0), oldFormatResult(r, 0); !slices.Equal(got, want) {
				t.Errorf("%s/%s: the served vertices list no longer renders what it rendered", name, algo)
			}
		}
	}
	w := ival.New(built.Horizon()/8, built.Horizon()/4)
	s, err := tgraph.Slice(mapped, w)
	if err != nil {
		t.Fatal(err)
	}
	source := s.Edge(0).Src
	prog, opts, _ := algorithms.New(s, "eat", algorithms.Params{Source: source, StartTime: w.Start})
	want, err := core.Run(s, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog, opts, _ = algorithms.New(mapped, "eat", algorithms.Params{Source: source, StartTime: w.Start, Window: w})
	got, err := core.Run(mapped, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() == mapped.NumVertices() {
		t.Fatalf("window %v drops no vertex", w)
	}
	for _, top := range []int{0, 5} {
		if a, b := FormatResult(got, top), oldFormatResult(want, top); !slices.Equal(a, b) {
			t.Errorf("top %d: the view renders %d lines, the slice %d, or they differ", top, len(a), len(b))
		}
	}
}

// windowOracle answers a windowed request by deriving the window's graph:
// the catalog algorithm over tgraph.Slice of the window, on the test server's
// two workers, each kept vertex on the worker the view puts it on (its parent
// index modulo the worker count: the slice renumbers its vertices, and
// PageRank's sums and LCC's and TC's lists follow the order messages arrive
// in).
func windowOracle(t testing.TB, g *tgraph.Graph, w ival.Interval, algo string, p algorithms.Params) *core.Result {
	t.Helper()
	s, err := tgraph.Slice(g, w)
	if err != nil {
		t.Fatal(err)
	}
	prog, opts, err := algorithms.New(s, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]int, s.NumVertices())
	for i := range orig {
		orig[i] = g.IndexOf(s.VertexAt(i).ID)
	}
	opts.NumWorkers = 2
	opts.Partitioner = func(v, n int) int { return orig[v] % n }
	r, err := core.Run(s, prog, opts)
	if err != nil {
		t.Fatalf("%s over the slice of %v: %v", algo, w, err)
	}
	return r
}

// TestWindowedExecuteMatchesSliceOracle: every catalog algorithm over built
// and mapped graphs and windows that drop vertices on both sides — rendered
// lines and run counts equal the run over the slice.
func TestWindowedExecuteMatchesSliceOracle(t *testing.T) {
	built, mapped := churnGraph(t)
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"built": built, "mapped": mapped}, Workers: 2})
	h := int64(built.Horizon())
	dropped := false
	for _, win := range []Window{{0, h / 2}, {h / 8, h / 4}, {h / 2, h/2 + 1}, {h * 5 / 8, 0}} {
		w, err := normalizeWindow(&win)
		if err != nil {
			t.Fatal(err)
		}
		var src, dst tgraph.VertexID
		for i := range built.Edges() {
			if e := built.Edge(i); e.Lifespan.Intersects(w) {
				src, dst = e.Src, e.Dst
				break
			}
		}
		for _, algo := range algorithms.Names() {
			want := windowOracle(t, built, w, algo, algorithms.Params{Source: src, Target: dst})
			dropped = dropped || want.Graph.NumVertices() < built.NumVertices()
			for _, graph := range []string{"built", "mapped"} {
				win := win
				res, err := s.Execute(context.Background(), &RunRequest{Graph: graph, Algorithm: algo, Window: &win,
					NoCache: true, Params: map[string]int64{"source": int64(src), "target": int64(dst)}})
				if err != nil {
					t.Fatalf("%s %s over %v: %v", graph, algo, w, err)
				}
				if got, ref := res.FormatLines(0), FormatResult(want, 0); !slices.Equal(got, ref) {
					t.Errorf("%s %s over %v: served lines differ from the run over the slice (%d vs %d lines)",
						graph, algo, w, len(got), len(ref))
				}
				m := RunMetrics{Supersteps: want.Metrics.Supersteps, ComputeCalls: want.Metrics.ComputeCalls,
					ScatterCalls: want.Metrics.ScatterCalls, Messages: want.Metrics.Messages,
					MessageBytes: want.Metrics.MessageBytes, MakespanNS: res.Metrics.MakespanNS,
					WarpCalls: want.Stats.WarpCalls, WarpSuppressed: want.Stats.WarpSuppressed,
					ActiveIntervals: want.Stats.ActiveIntervals}
				if res.Metrics != m {
					t.Errorf("%s %s over %v: counts\n  served %+v\n  slice  %+v", graph, algo, w, res.Metrics, m)
				}
			}
		}
	}
	if !dropped {
		t.Error("no window dropped a vertex")
	}
}

// TestConcurrentWindowedQueries: view runs over different windows share the
// graph and its one memoised plan, read-only (run under -race).
func TestConcurrentWindowedQueries(t *testing.T) {
	built, mapped := churnGraph(t)
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"mapped": mapped}, Workers: 2})
	h := int64(built.Horizon())
	src := earlySource(t, built, h/8)
	var wg sync.WaitGroup
	for i := int64(0); i < 6; i++ {
		win := Window{Start: 0, End: h/4 + i*h/8}
		algo := []string{"sssp", "ld", "wcc"}[i%3]
		want := FormatResult(windowOracle(t, built, ival.New(0, ival.Time(win.End)), algo, algorithms.Params{Source: src, Target: src}), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Execute(context.Background(), &RunRequest{Graph: "mapped", Algorithm: algo, Window: &win,
				Params: map[string]int64{"source": int64(src), "target": int64(src)}})
			if err != nil {
				t.Errorf("%s over %+v: %v", algo, win, err)
				return
			}
			if !slices.Equal(res.FormatLines(0), want) {
				t.Errorf("%s over %+v: served lines differ from the run over the slice", algo, win)
			}
		}()
	}
	wg.Wait()
}

// TestWindowRejections: the two 400s a window can cause read exactly as they
// did when they were derived from the slice, for every algorithm, and nothing
// runs.
func TestWindowRejections(t *testing.T) {
	g := tgraph.NewBuilder(3, 1).AddVertex(1, ival.New(0, 10)).AddVertex(2, ival.New(0, 10)).
		AddVertex(7, ival.New(20, 30)).AddEdge(1, 1, 2, ival.New(2, 8)).MustBuild()
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"g": g}})
	cases := []struct {
		algo   string
		params map[string]int64
		window Window
		want   string
	}{
		{"sssp", map[string]int64{"source": 1}, Window{12, 18}, "serve: bad request: window [12,18) contains no vertices"},
		{"pr", nil, Window{12, 18}, "serve: bad request: window [12,18) contains no vertices"},
		{"sssp", map[string]int64{"source": 7}, Window{0, 5}, `serve: bad request: source vertex 7 not in graph "g" window [0,5)`},
		{"ld", map[string]int64{"target": 1}, Window{20, 25}, `serve: bad request: target vertex 1 not in graph "g" window [20,25)`},
		{"scc", map[string]int64{"source": 7}, Window{0, 5}, `serve: bad request: source vertex 7 not in graph "g" window [0,5)`},
		{"eat", map[string]int64{"source": 9}, Window{0, 5}, `serve: bad request: source vertex 9 not in graph "g" window [0,5)`},
		{"eat", map[string]int64{"source": 9}, Window{}, `serve: bad request: source vertex 9 not in graph "g" window [0,inf)`},
	}
	for _, c := range cases {
		c := c
		_, err := s.Execute(context.Background(), &RunRequest{Graph: "g", Algorithm: c.algo, Params: c.params, Window: &c.window})
		if !errors.Is(err, ErrBadRequest) || err.Error() != c.want {
			t.Errorf("%s %v over %+v:\n  got  %v\n  want %s", c.algo, c.params, c.window, err, c.want)
		}
	}
	if n := s.Registry().Counter(CRunsExecuted).Load() + s.Registry().Counter(CRunsFailed).Load(); n != 0 {
		t.Errorf("%d runs started for rejected requests", n)
	}
	// A vertex the window keeps is accepted.
	for _, algo := range []string{"sssp", "scc"} {
		if _, err := s.Execute(context.Background(), &RunRequest{Graph: "g", Algorithm: algo,
			Params: map[string]int64{"source": 7}, Window: &Window{15, 25}}); err != nil {
			t.Errorf("%s from vertex 7 over [15, 25): %v", algo, err)
		}
	}
}

// TestWindowExtensionSeedsThroughTheView: on a static graph a [0,e1) answer
// seeds [0,e2) — the retained states line up with the graph's own indices,
// vertices [0,e1) dropped included — and the seeded answer is the cold one.
func TestWindowExtensionSeedsThroughTheView(t *testing.T) {
	built, mapped := churnGraph(t)
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"mapped": mapped}, Workers: 2})
	h := int64(built.Horizon())
	src := earlySource(t, built, h/8)
	for _, algo := range []string{"eat", "fast", "rh"} {
		req := func(end int64, noCache bool) *RunRequest {
			return &RunRequest{Graph: "mapped", Algorithm: algo, NoCache: noCache,
				Params: map[string]int64{"source": int64(src)}, Window: &Window{0, end}}
		}
		var seeded *RunResult
		for _, end := range []int64{h / 4, h / 2, h * 3 / 4} {
			res, err := s.Execute(context.Background(), req(end, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Seeded != (end != h/4) {
				t.Errorf("%s over [0, %d): seeded = %v", algo, end, res.Seeded)
			}
			seeded = res
		}
		cold, err := s.Execute(context.Background(), req(h*3/4, true))
		if err != nil {
			t.Fatal(err)
		}
		want := windowOracle(t, built, ival.New(0, h*3/4), algo, algorithms.Params{Source: src})
		if cold.Seeded || !reflect.DeepEqual(seeded.Vertices, cold.Vertices) || !slices.Equal(cold.FormatLines(0), FormatResult(want, 0)) {
			t.Errorf("%s: the seeded extension, the cold view run and the run over the slice disagree", algo)
		}
	}
}

// TestWindowedExecuteAllocation: a windowed request allocates about what the
// whole-lifetime request does — it derives nothing from the graph — where
// slicing the graph per request cost several times as much.
func TestWindowedExecuteAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	g, err := gen.Generate(gen.TwitterLike(0.3), 42)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"g": g}, Workers: 2})
	bytesPer := func(window *Window) float64 {
		req := &RunRequest{Graph: "g", Algorithm: "sssp", NoCache: true, Window: window,
			Params: map[string]int64{"source": int64(g.Edge(0).Src)}}
		if _, err := s.Execute(context.Background(), req); err != nil { // builds the plan
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Execute(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	whole := bytesPer(nil)
	view := bytesPer(&Window{0, int64(g.Horizon()) / 2})
	if view > 1.25*whole {
		t.Errorf("a windowed sssp request allocates %.0f bytes, a whole-lifetime one %.0f; want at most 1.25x", view, whole)
	}
}
