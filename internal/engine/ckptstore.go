package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// This file is the durable half of the checkpoint subsystem: checkpoint.go
// captures a shard, and the CheckpointStore persists those captures to disk
// so a worker process that was SIGKILLed can be replaced and reload its
// shard state. Durability discipline: checkpoint
// bytes are written to a temp file, fsynced, and atomically renamed into
// place; a generation only becomes visible once the versioned manifest —
// itself updated by atomic rename — records it. Every load verifies a CRC32
// over the payload, so a torn or corrupted file is a typed error and never
// silently loaded; LatestValid walks the manifest newest-first past corrupt
// generations.

// Checkpoint-store errors. ErrCheckpointCorrupt wraps every integrity
// failure (bad magic, truncation, CRC mismatch); callers fall back to an
// older generation via LatestValid.
var (
	ErrCheckpointCorrupt = errors.New("engine: checkpoint corrupt")
	ErrNoCheckpoint      = errors.New("engine: no checkpoint available")
)

// ckptMagic opens every checkpoint file: 4 bytes of magic including a
// format version.
var ckptMagic = [4]byte{'G', 'C', 'K', '1'}

const (
	manifestName = "MANIFEST.json"
	// DefaultKeepGenerations is how many generations Prune retains by
	// default. The cluster rollback target is the last globally-committed
	// generation, which trails any single worker's newest by at most one, so
	// even two would suffice; the margin keeps forensics possible.
	DefaultKeepGenerations = 4
)

// CheckpointMeta describes one stored generation.
type CheckpointMeta struct {
	Gen       int    `json:"gen"`
	Superstep int    `json:"superstep"` // superstep about to execute on restore
	Bytes     int64  `json:"bytes"`
	CRC       uint32 `json:"crc"`
}

// ckptManifest is the on-disk index of generations, ascending by Gen.
type ckptManifest struct {
	Version     int              `json:"version"`
	Generations []CheckpointMeta `json:"generations"`
}

// CheckpointStore persists checkpoint generations in one directory. Safe
// for use by one process at a time (the worker owning the shard); methods
// are internally serialized.
type CheckpointStore struct {
	// CommitHook, when set, is invoked at the named stages of Save:
	// "written" after the temp file is written and synced but before the
	// atomic rename, and "committed" after the rename but before the
	// manifest update. It is the seam the process-kill chaos driver uses to
	// SIGKILL a worker mid-checkpoint and prove recovery falls back to the
	// previous generation.
	CommitHook func(stage string)

	dir string
	mu  sync.Mutex
	man ckptManifest
}

// OpenCheckpointStore opens (creating if needed) a checkpoint directory and
// loads its manifest. A missing manifest means an empty store; an unreadable
// one is an error (the directory is in an unknown state).
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	s := &CheckpointStore{dir: dir, man: ckptManifest{Version: 1}}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("engine: read checkpoint manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &s.man); err != nil {
		return nil, fmt.Errorf("engine: parse checkpoint manifest: %w", err)
	}
	sort.Slice(s.man.Generations, func(a, b int) bool {
		return s.man.Generations[a].Gen < s.man.Generations[b].Gen
	})
	return s, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

func (s *CheckpointStore) genPath(gen int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.bin", gen))
}

// Save persists one generation: temp file + fsync + atomic rename, then the
// manifest (same discipline). Re-saving an existing generation overwrites
// it. The data is framed as magic, a little-endian length, the payload, and
// a CRC32 (IEEE) of the payload, written around data rather than copied with
// it into a frame.
func (s *CheckpointStore) Save(gen, superstep int, data []byte) (CheckpointMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := CheckpointMeta{
		Gen:       gen,
		Superstep: superstep,
		Bytes:     int64(len(data)),
		CRC:       crc32.ChecksumIEEE(data),
	}
	hdr := binary.LittleEndian.AppendUint64(append([]byte(nil), ckptMagic[:]...), uint64(len(data)))
	crc := binary.LittleEndian.AppendUint32(nil, meta.CRC)

	final := s.genPath(gen)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, hdr, data, crc); err != nil {
		return CheckpointMeta{}, err
	}
	if s.CommitHook != nil {
		s.CommitHook("written")
	}
	if err := os.Rename(tmp, final); err != nil {
		return CheckpointMeta{}, fmt.Errorf("engine: commit checkpoint gen %d: %w", gen, err)
	}
	if s.CommitHook != nil {
		s.CommitHook("committed")
	}

	gens := s.man.Generations[:0]
	for _, m := range s.man.Generations {
		if m.Gen != gen {
			gens = append(gens, m)
		}
	}
	s.man.Generations = append(gens, meta)
	sort.Slice(s.man.Generations, func(a, b int) bool {
		return s.man.Generations[a].Gen < s.man.Generations[b].Gen
	})
	if err := s.writeManifest(); err != nil {
		return CheckpointMeta{}, err
	}
	return meta, nil
}

// writeFileSync writes the parts to path, one after another, and fsyncs
// once before closing, so a rename never publishes a file whose bytes are
// still in the page cache only.
func writeFileSync(path string, parts ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return fmt.Errorf("engine: write checkpoint: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("engine: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: close checkpoint: %w", err)
	}
	return nil
}

func (s *CheckpointStore) writeManifest() error {
	raw, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, manifestName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, append(raw, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("engine: commit checkpoint manifest: %w", err)
	}
	return nil
}

// Load reads and verifies one generation. Any integrity failure — bad
// magic, truncated frame, payload shorter than its header claims, CRC
// mismatch — returns an error wrapping ErrCheckpointCorrupt; an absent
// generation returns ErrNoCheckpoint.
func (s *CheckpointStore) Load(gen int) ([]byte, CheckpointMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(gen)
}

func (s *CheckpointStore) loadLocked(gen int) ([]byte, CheckpointMeta, error) {
	var meta CheckpointMeta
	found := false
	for _, m := range s.man.Generations {
		if m.Gen == gen {
			meta, found = m, true
			break
		}
	}
	if !found {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: generation %d not in manifest", ErrNoCheckpoint, gen)
	}
	frame, err := os.ReadFile(s.genPath(gen))
	if errors.Is(err, os.ErrNotExist) {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: generation %d file missing", ErrCheckpointCorrupt, gen)
	}
	if err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("engine: read checkpoint gen %d: %w", gen, err)
	}
	hdr := len(ckptMagic) + 8
	if len(frame) < hdr+4 || [4]byte(frame[:4]) != ckptMagic {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: gen %d: bad header (%d bytes)", ErrCheckpointCorrupt, gen, len(frame))
	}
	n := binary.LittleEndian.Uint64(frame[4:hdr])
	if uint64(len(frame)) != uint64(hdr)+n+4 {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: gen %d: truncated (%d of %d payload bytes)",
			ErrCheckpointCorrupt, gen, len(frame)-hdr-4, n)
	}
	data := frame[hdr : hdr+int(n)]
	crc := binary.LittleEndian.Uint32(frame[hdr+int(n):])
	if got := crc32.ChecksumIEEE(data); got != crc {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: gen %d: CRC mismatch (got %08x, want %08x)",
			ErrCheckpointCorrupt, gen, got, crc)
	}
	if meta.Bytes != int64(n) || meta.CRC != crc {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: gen %d: manifest disagrees with file", ErrCheckpointCorrupt, gen)
	}
	return data, meta, nil
}

// LatestValid returns the newest generation that loads and verifies
// cleanly, walking the manifest past corrupt or missing generations — the
// fallback path a torn checkpoint write must land on. ErrNoCheckpoint when
// nothing valid remains.
func (s *CheckpointStore) LatestValid() ([]byte, CheckpointMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.man.Generations) - 1; i >= 0; i-- {
		data, meta, err := s.loadLocked(s.man.Generations[i].Gen)
		if err == nil {
			return data, meta, nil
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrNoCheckpoint) {
			return nil, CheckpointMeta{}, err
		}
	}
	return nil, CheckpointMeta{}, ErrNoCheckpoint
}

// Generations returns the manifest's generations, ascending.
func (s *CheckpointStore) Generations() []CheckpointMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CheckpointMeta(nil), s.man.Generations...)
}

// Prune drops all but the newest keep generations (files and manifest
// entries); keep <= 0 means DefaultKeepGenerations.
func (s *CheckpointStore) Prune(keep int) error {
	if keep <= 0 {
		keep = DefaultKeepGenerations
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.man.Generations) <= keep {
		return nil
	}
	drop := s.man.Generations[:len(s.man.Generations)-keep]
	s.man.Generations = append([]CheckpointMeta(nil), s.man.Generations[len(s.man.Generations)-keep:]...)
	if err := s.writeManifest(); err != nil {
		return err
	}
	for _, m := range drop {
		if err := os.Remove(s.genPath(m.Gen)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
