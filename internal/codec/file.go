package codec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// Every file the system keeps — a checkpoint generation, a WAL header, a
// compaction or graph snapshot, a partition, a worker's SHARD marker — is
// written here, the one way that survives a crash of the whole machine: the
// bytes go to path+".tmp" and are fsynced, the temp file is renamed over
// path, and path's directory is fsynced, since a rename is durable only once
// its directory is. A reader therefore sees the old file or the new one,
// never a torn one, and a file mapped from path keeps its old bytes.

// WriteTemp writes parts, one after another, to path+".tmp", fsyncs and
// closes it, and returns the temp path for Publish. On error the temp file
// is removed.
func WriteTemp(path string, parts ...[]byte) (string, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("codec: write %s: %w", tmp, err)
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("codec: write %s: %w", tmp, err)
	}
	return tmp, nil
}

// Publish renames tmp over path and fsyncs path's directory. A file system
// that refuses a directory fsync (EINVAL) is tolerated.
func Publish(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("codec: publish %s: %w", path, err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("codec: sync dir of %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("codec: sync dir of %s: %w", path, err)
	}
	return nil
}

// WriteFile durably replaces path with parts: WriteTemp, then Publish.
func WriteFile(path string, parts ...[]byte) error {
	tmp, err := WriteTemp(path, parts...)
	if err != nil {
		return err
	}
	return Publish(tmp, path)
}
