package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFile: the parts land in order, a rewrite replaces the file
// whole, and no temp file is left behind; a temp file is published only by
// Publish.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, parts := range [][][]byte{{[]byte("head"), nil, []byte("-tail")}, {[]byte("x")}, nil} {
		if err := WriteFile(path, parts...); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, bytes.Join(parts, nil)) {
			t.Fatalf("file = %q (%v), want %q", got, err, bytes.Join(parts, nil))
		}
	}
	tmp, err := WriteTemp(path, []byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); len(got) != 0 {
		t.Fatalf("WriteTemp changed the file to %q before Publish", got)
	}
	if err := Publish(tmp, path); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "staged" {
		t.Fatalf("published file = %q", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want the file alone", len(ents))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
