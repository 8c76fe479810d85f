package tgraph

import (
	"bytes"
	"errors"
	"testing"

	ival "graphite/internal/interval"
)

// TestPatchChecksWhatItChanges patches one small graph every way an epoch
// can change — insertions that shift indices, a removal, a replacement that
// shrinks a lifespan — and every way a patch can break a constraint: the
// results equal the Builder's graphs, the failures carry the Builder's
// sentinels, and the predecessor never moves.
func TestPatchChecksWhatItChanges(t *testing.T) {
	build := func(vs []Vertex, es []Edge) *Graph {
		b := NewBuilder(len(vs), len(es))
		for _, v := range vs {
			b.AddVertex(v.ID, v.Lifespan)
		}
		for _, e := range es {
			b.AddEdge(e.ID, e.Src, e.Dst, e.Lifespan)
			for label, entries := range e.Props.All() {
				for _, p := range entries {
					b.SetEdgeProp(e.ID, label, p.Interval, p.Value)
				}
			}
		}
		return b.MustBuild()
	}
	v := func(id VertexID, s, e ival.Time) Vertex { return Vertex{ID: id, Lifespan: ival.New(s, e)} }
	edge := func(id EdgeID, src, dst VertexID, s, e ival.Time) Edge {
		return Edge{ID: id, Src: src, Dst: dst, Lifespan: ival.New(s, e)}
	}
	withProp := func(e Edge, entries ...PropEntry) Edge {
		e.Props = Props{}
		e.Props.AddAll("w", entries)
		return e
	}
	prev := build([]Vertex{v(1, 0, 10), v(2, 0, 10), v(3, 0, 10)},
		[]Edge{edge(5, 1, 2, 1, 8), edge(6, 2, 3, 2, 9)})
	before := EncodeSnapshot(prev, nil)

	for name, tc := range map[string]struct {
		vs   []Vertex
		es   []Edge
		want *Graph
		err  error
	}{
		"insert around": {
			vs:   []Vertex{v(0, 0, 4), v(4, 0, 4)},
			es:   []Edge{withProp(edge(7, 0, 4, 1, 3), PropEntry{ival.New(2, 3), 8}, PropEntry{ival.New(1, 2), 7})},
			want: build([]Vertex{v(0, 0, 4), v(1, 0, 10), v(2, 0, 10), v(3, 0, 10), v(4, 0, 4)}, []Edge{edge(5, 1, 2, 1, 8), edge(6, 2, 3, 2, 9), withProp(edge(7, 0, 4, 1, 3), PropEntry{ival.New(1, 2), 7}, PropEntry{ival.New(2, 3), 8})}),
		},
		"remove with edges": {
			vs:   []Vertex{v(2, 4, 4)},
			es:   []Edge{edge(5, 1, 2, 3, 3), edge(6, 2, 3, 3, 3)},
			want: build([]Vertex{v(1, 0, 10), v(3, 0, 10)}, nil),
		},
		"shrink to fit": {
			vs:   []Vertex{v(3, 0, 9)},
			want: build([]Vertex{v(1, 0, 10), v(2, 0, 10), v(3, 0, 9)}, []Edge{edge(5, 1, 2, 1, 8), edge(6, 2, 3, 2, 9)}),
		},
		"shrink under an edge":   {vs: []Vertex{v(2, 0, 5)}, err: ErrEdgeOutlives},
		"remove under an edge":   {vs: []Vertex{v(2, 0, 0)}, err: ErrDanglingEdge},
		"edge to nowhere":        {es: []Edge{edge(7, 1, 9, 1, 2)}, err: ErrDanglingEdge},
		"edge outliving":         {es: []Edge{edge(6, 2, 3, 2, 11)}, err: ErrEdgeOutlives},
		"vertex twice":           {vs: []Vertex{v(4, 0, 1), v(4, 0, 2)}, err: ErrDuplicateVertex},
		"vertices unordered":     {vs: []Vertex{v(4, 0, 1), v(0, 0, 2)}, err: ErrDuplicateVertex},
		"edge twice":             {es: []Edge{edge(7, 1, 2, 1, 2), edge(7, 1, 2, 1, 3)}, err: ErrDuplicateEdge},
		"negative lifespan":      {vs: []Vertex{v(4, -1, 2)}, err: ErrInvalidLifespan},
		"property outliving":     {es: []Edge{withProp(edge(7, 1, 2, 1, 3), PropEntry{ival.New(1, 4), 1})}, err: ErrPropOutlives},
		"properties overlapping": {es: []Edge{withProp(edge(7, 1, 2, 1, 5), PropEntry{ival.New(1, 3), 1}, PropEntry{ival.New(2, 4), 2})}, err: ErrPropConflict},
	} {
		got, err := Patch(prev, tc.vs, tc.es)
		switch {
		case tc.err != nil && !errors.Is(err, tc.err):
			t.Errorf("%s: got %v, want %v", name, err, tc.err)
		case tc.err == nil && err != nil:
			t.Errorf("%s: %v", name, err)
		case tc.err == nil:
			if err := Equal(got, tc.want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			for r := 0; r < got.NumVertices(); r++ {
				if id := got.VertexAt(got.IndexByRank(r)).ID; got.IndexOf(id) != got.IndexByRank(r) {
					t.Errorf("%s: IndexOf(%d) = %d, want %d", name, id, got.IndexOf(id), got.IndexByRank(r))
				}
			}
		}
		if !bytes.Equal(EncodeSnapshot(prev, nil), before) {
			t.Fatalf("%s: Patch wrote into its predecessor", name)
		}
	}
}
