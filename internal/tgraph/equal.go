package tgraph

import "fmt"

// Equal reports whether two graphs are structurally identical: the same
// vertex and edge tables (ids, lifespans, properties) in the same dense
// index order, the same adjacency, lifespan hull and horizon. It returns
// nil when equal, or a description of the first difference — which makes
// it the oracle for round-trip and differential tests. Index structures
// (hash map vs sorted permutation) are representation details and are not
// compared; nil and empty adjacency rows are considered equal.
func Equal(a, b *Graph) error {
	if a.NumVertices() != b.NumVertices() {
		return fmt.Errorf("|V| %d != %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("|E| %d != %d", a.NumEdges(), b.NumEdges())
	}
	if a.lifespan != b.lifespan {
		return fmt.Errorf("lifespan %v != %v", a.lifespan, b.lifespan)
	}
	if a.Horizon() != b.Horizon() {
		return fmt.Errorf("horizon %d != %d", a.Horizon(), b.Horizon())
	}
	for i := range a.vertices {
		av, bv := &a.vertices[i], &b.vertices[i]
		if av.ID != bv.ID || av.Lifespan != bv.Lifespan {
			return fmt.Errorf("vertex %d: (%d, %v) != (%d, %v)", i, av.ID, av.Lifespan, bv.ID, bv.Lifespan)
		}
		if err := propsEqual(av.Props, bv.Props); err != nil {
			return fmt.Errorf("vertex %d (id %d): %w", i, av.ID, err)
		}
	}
	for i := range a.edges {
		ae, be := &a.edges[i], &b.edges[i]
		if ae.ID != be.ID || ae.Src != be.Src || ae.Dst != be.Dst || ae.Lifespan != be.Lifespan {
			return fmt.Errorf("edge %d: (%d, %d->%d, %v) != (%d, %d->%d, %v)",
				i, ae.ID, ae.Src, ae.Dst, ae.Lifespan, be.ID, be.Src, be.Dst, be.Lifespan)
		}
		if a.srcIdx[i] != b.srcIdx[i] || a.dstIdx[i] != b.dstIdx[i] {
			return fmt.Errorf("edge %d endpoint indices (%d, %d) != (%d, %d)",
				i, a.srcIdx[i], a.dstIdx[i], b.srcIdx[i], b.dstIdx[i])
		}
		if err := propsEqual(ae.Props, be.Props); err != nil {
			return fmt.Errorf("edge %d (id %d): %w", i, ae.ID, err)
		}
	}
	for v := range a.out {
		if err := rowsEqual(a.out[v], b.out[v]); err != nil {
			return fmt.Errorf("out-edges of vertex %d: %w", v, err)
		}
		if err := rowsEqual(a.in[v], b.in[v]); err != nil {
			return fmt.Errorf("in-edges of vertex %d: %w", v, err)
		}
	}
	return nil
}

func propsEqual(a, b Props) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("property count %d != %d", a.Len(), b.Len())
	}
	for li, label := range a.labels {
		if b.labels[li] != label {
			return fmt.Errorf("property %q != %q at position %d", label, b.labels[li], li)
		}
		ae, be := a.entries[li], b.entries[li]
		if len(ae) != len(be) {
			return fmt.Errorf("property %q entry count %d != %d", label, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				return fmt.Errorf("property %q entry %d: %v != %v", label, i, ae[i], be[i])
			}
		}
	}
	return nil
}

func rowsEqual(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("degree %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("edge index %d != %d at position %d", a[i], b[i], i)
		}
	}
	return nil
}
