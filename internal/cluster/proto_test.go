package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardMarkerRoundTrip: the SHARD marker reads back what was written,
// a rewrite replaces it, and no temp file is left behind.
func TestShardMarkerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if got := readShardMarker(dir); got != -1 {
		t.Fatalf("marker of an empty directory = %d, want -1", got)
	}
	for _, shard := range []int{3, 0, 12} {
		if err := writeShardMarker(dir, shard); err != nil {
			t.Fatal(err)
		}
		if got := readShardMarker(dir); got != shard {
			t.Fatalf("marker = %d, want %d", got, shard)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want the marker alone", len(ents), err)
	}
}
