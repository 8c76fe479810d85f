package tgraph_test

// Slice against its oracle on the generated graphs the benchmark serves:
// every profile, from a Builder-built and from a mapped source, over windows
// chosen to take every branch of the clip.

import (
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

func generate(t testing.TB, p gen.Profile) *tgraph.Graph {
	t.Helper()
	g, err := gen.Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openMapped(t testing.TB, g *tgraph.Graph) *tgraph.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gsn")
	if err := tgraph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := tgraph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// midEntryCut returns a window ending one time-point into the first edge
// property entry long enough to be cut, or false if there is none.
func midEntryCut(g *tgraph.Graph) (ival.Interval, bool) {
	for i := range g.Edges() {
		for _, entries := range g.Edge(i).Props.All() {
			for _, p := range entries {
				if p.Interval.Length() >= 2 {
					return ival.New(0, p.Interval.Start+1), true
				}
			}
		}
	}
	return ival.Interval{}, false
}

func TestSliceMatchesOracle(t *testing.T) {
	var cutEntries, remapped bool
	for _, p := range gen.AllProfiles(0.05) {
		built := generate(t, p)
		mapped := openMapped(t, built)
		defer mapped.Close()
		hull, h := built.Lifespan(), built.Horizon()
		windows := map[string]ival.Interval{
			"universe":      ival.Universe,
			"hull":          hull,
			"beyond hull":   ival.New(hull.Start, hull.End+3),
			"half":          ival.New(0, h/2),
			"unit":          ival.Point(h / 2),
			"late":          ival.From(h - h/4),
			"keeps nothing": ival.New(hull.End, hull.End+5),
		}
		if w, ok := midEntryCut(built); ok {
			windows["mid-entry"] = w
		}
		for src, g := range map[string]*tgraph.Graph{"built": built, "mapped": mapped.Graph} {
			for name, w := range windows {
				s, err := tgraph.Slice(g, w)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name, src, name, err)
				}
				want, err := tgraph.SliceOracle(g, w)
				if err != nil {
					t.Fatalf("%s/%s/%s: oracle: %v", p.Name, src, name, err)
				}
				if err := tgraph.Equal(s, want); err != nil {
					t.Errorf("%s/%s/%s: Slice differs from the Builder derivation: %v", p.Name, src, name, err)
				}
				if got := g.HorizonIn(w); got != s.Horizon() {
					t.Errorf("%s/%s/%s: HorizonIn = %d, the slice's horizon is %d", p.Name, src, name, got, s.Horizon())
				}
				if whole := w.ContainsInterval(hull); whole != (s == g) {
					t.Errorf("%s/%s/%s: returned the source itself = %v, want %v", p.Name, src, name, s == g, whole)
				}
				if name == "keeps nothing" && s.NumVertices() != 0 {
					t.Errorf("%s/%s: a window past the hull keeps %d vertices", p.Name, src, s.NumVertices())
				}
				if name == "mid-entry" && s.NumEdges() > 0 {
					cutEntries = true
				}
				// Dropped vertices shift every later dense index, so kept
				// edges carry remapped endpoints.
				if s.NumVertices() < g.NumVertices() && s.NumEdges() > 0 {
					remapped = true
				}
			}
		}
	}
	if !cutEntries || !remapped {
		t.Errorf("window matrix lost coverage: cut a property entry mid-interval = %v, remapped edge endpoints = %v", cutEntries, remapped)
	}
}

// TestSliceOutlivesMapping: nothing in a slice points into its source's
// mapping — adjacency and indices are rebuilt, property sets are heap slabs —
// so the slice is intact after the mapping is gone.
func TestSliceOutlivesMapping(t *testing.T) {
	built := generate(t, gen.MAGLike(0.05))
	mapped := openMapped(t, built)
	w := ival.New(built.Horizon()/4, built.Horizon()/2)
	s, err := tgraph.Slice(mapped.Graph, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := tgraph.SliceOracle(built, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgraph.Equal(s, want); err != nil {
		t.Fatalf("slice of a closed mapping differs from its oracle: %v", err)
	}
	for i := range built.Vertices() {
		if id := built.VertexAt(i).ID; s.IndexOf(id) != want.IndexOf(id) {
			t.Fatalf("IndexOf(%d) = %d after Close, want %d", id, s.IndexOf(id), want.IndexOf(id))
		}
	}
}

// TestSliceAllocations: a slice is a fixed handful of exactly-sized arrays,
// however many vertices, edges and property entries it keeps.
func TestSliceAllocations(t *testing.T) {
	if tgraph.RaceEnabled {
		t.Skip("alloc gate skipped under -race: detector instrumentation inflates alloc counts")
	}
	// AllocsPerRun counts the whole process's mallocs, and after every
	// collection the runtime's `unique` cleanup goroutine (there through
	// package net) allocates two objects per map it walks: enough
	// collections inside a scale-0.2 sample read as one object more per
	// Slice. So the collector is off while a slice is sampled, and ten runs
	// outweigh the one pass that may still be pending.
	allocs := func(scale gen.Scale) float64 {
		g := generate(t, gen.TwitterLike(scale))
		w := ival.New(0, g.Horizon()/2)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, func() {
			if _, err := tgraph.Slice(g, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(0.02), allocs(0.2)
	if small != large || large > 16 {
		t.Errorf("Slice allocates %v objects at scale 0.02, %v at 0.2; want equal and <= 16", small, large)
	}
}

// TestSliceConcurrent: slices of one source share its whole property sets
// and nothing else, read-only — concurrent windowed queries over a resident
// graph each clip it without synchronization (run under -race).
func TestSliceConcurrent(t *testing.T) {
	g := generate(t, gen.MAGLike(0.05))
	h := g.Horizon()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w := ival.New(ival.Time(i)*h/8, h/2+ival.Time(i)*h/8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := tgraph.Slice(g, w)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := tgraph.SliceOracle(g, w)
			if err != nil {
				t.Error(err)
				return
			}
			if err := tgraph.Equal(s, want); err != nil {
				t.Errorf("window %v: %v", w, err)
			}
			if _, err := algorithms.RunEAT(s, s.VertexAt(0).ID, w.Start, 2); err != nil {
				t.Errorf("window %v: EAT: %v", w, err)
			}
		}()
	}
	wg.Wait()
}
