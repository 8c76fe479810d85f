package tgraph_test

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"testing"

	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// TestOverwriteKeepsMappedGraph: a graph mapped from a path must read its
// own bytes after a writer replaces that path with a smaller graph. A writer
// that truncated and rewrote the file in place would leave the mapping
// reading the new graph's bytes, or faulting past the new end of file.
func TestOverwriteKeepsMappedGraph(t *testing.T) {
	orig := generate(t, gen.TwitterLike(0.5))
	for _, tc := range []struct {
		name  string
		write func(path string, g *tgraph.Graph) error
	}{
		{"snapshot", tgraph.WriteSnapshotFile},
		{"partition", func(path string, g *tgraph.Graph) error {
			meta := &tgraph.PartitionMeta{Shards: 1, Vertices: g.NumVertices(), Edges: g.NumEdges(),
				Assign: make([]int32, g.NumVertices())}
			return tgraph.WritePartitionFile(path, g, meta)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.gsn")
			if err := tc.write(path, orig); err != nil {
				t.Fatal(err)
			}
			m, err := tgraph.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := tc.write(path, tgraph.TransitExample()); err != nil {
				t.Fatal(err)
			}
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			err = func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("reading the mapping faulted: %v", r)
					}
				}()
				return tgraph.Equal(m.Graph, orig)
			}()
			if err != nil {
				t.Fatalf("mapped graph changed under an overwrite of its path: %v", err)
			}
		})
	}
}
